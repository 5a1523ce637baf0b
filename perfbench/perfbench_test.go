package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bpl"
	"repro/internal/flow"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

func TestPercentile(t *testing.T) {
	s := samples{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := (samples{3, 1, 2}).median(); got != 2 {
		t.Errorf("median of {3,1,2} = %v, want 2", got)
	}
	if got := (samples{7}).percentile(99); got != 7 {
		t.Errorf("p99 of {7} = %v, want 7", got)
	}
	if got := (samples{}).median(); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

// The traced run parses and handles the lines request() encodes; they
// must be the bytes server.Client sends for the same operations.  A fake
// server on a pipe records every line and answers CREATE with its key
// (so the churn LINK follows) and everything else with ERR.
func TestRequestLinesAreClientBytes(t *testing.T) {
	rc := &runCtx{seed: 1}
	trees := genForest(teamForest, rngFor(rc.seed, "forest"))
	ops := drawOps(trees, 400, rc)
	b := drawBatch(trees, rngFor(rc.seed, "ledger"))
	var want []string
	for _, o := range ops {
		want = append(want, o.request().Encode())
		if o.kind == opChurn {
			want = append(want, o.link().Encode())
		}
	}
	want = append(want, b.request().Encode())

	srvEnd, cliEnd := net.Pipe()
	defer srvEnd.Close()
	var got []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := bufio.NewReader(srvEnd)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimSuffix(line, "\n")
			got = append(got, line)
			answer := wire.Response{Detail: "test"}
			if q, err := wire.ParseRequest(line); err == nil && q.Verb == wire.VerbCreate {
				answer = wire.Response{OK: true, Detail: key(q.Args[0], q.Args[1]).String()}
			}
			if _, err := io.WriteString(srvEnd, answer.Encode()+"\n"); err != nil {
				return
			}
		}
	}()
	c := server.NewClient(cliEnd, 5*time.Second)
	cl := &teamClient{c: c, lat: make([][]float64, len(teamMix))}
	churn := &churnLog{sent: map[meta.Key]bool{}}
	for _, o := range ops {
		cl.do(o, churn)
	}
	c.User = b.user
	c.PostBatch(b.items)
	cliEnd.Close()
	<-done
	if len(got) != len(want) {
		t.Fatalf("client sent %d lines, request() encodes %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: client sent %q, request() encodes %q", i, got[i], want[i])
		}
	}
}

// testCtx is a one-second run under bp in a test directory.
func testCtx(t *testing.T, workload string, bp *bpl.Blueprint) *runCtx {
	t.Helper()
	rc := &runCtx{workload: workload, seed: 7, seconds: 1, tmp: t.TempDir(), bp: bp, cl: &cleanup{}}
	t.Cleanup(func() {
		if err := rc.cl.run(); err != nil {
			t.Error(err)
		}
	})
	return rc
}

func edtc(t *testing.T) *bpl.Blueprint {
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// loosened is the policy under which use links propagate nothing, as
// flow.PropagationBlueprint builds it with no propagated events.
func loosened(t *testing.T) *bpl.Blueprint {
	bp, err := flow.PropagationBlueprint("loosened", "schematic", nil)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestWorkloadsPassUnderEDTC(t *testing.T) {
	for _, name := range []string{"propagate", "team-mix"} {
		t.Run(name, func(t *testing.T) {
			rep := newReport()
			if err := workloads[name](testCtx(t, name, edtc(t)), rep); err != nil {
				t.Fatal(err)
			}
			if rep.checks.n != 0 || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, %s", rep.attempted, rep.failed, &rep.checks)
			}
			for _, m := range []string{"setup_s", "events_per_s", "write_p50_ms", "max_rss_mb"} {
				if v, ok := rep.metrics[m]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v", m, v)
				}
			}
		})
	}
}

// The output checks must catch a program that runs the loosened policy.
func TestChecksFailUnderLoosenedPolicy(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := newReport()
			if err := workloads[name](testCtx(t, name, loosened(t)), rep); err != nil {
				t.Fatal(err)
			}
			if rep.checks.n == 0 {
				t.Fatalf("no check failed under the loosened policy (attempted %d)", rep.attempted)
			}
		})
	}
}

// A run stopped at its deadline exits non-zero, prints no result and
// leaves no run directory behind.
func TestDeadlineStopsAndCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	work := filepath.Join(dir, "work")
	cmd := exec.Command(bin, "--workload", "checkin-durable", "--seconds", "30", "--deadline", "4s", "--dir", work)
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 3 {
		t.Fatalf("exit: %v, want code 3", err)
	}
	if bytes.Contains(out, []byte(`{"correct"`)) {
		t.Errorf("printed a result: %s", out)
	}
	left, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind: %s", e.Name())
	}
}
