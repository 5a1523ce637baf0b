// Command perfbench is the end-to-end benchmark of the design-data server.
// It builds the whole stack inside its own process — engine, meta-database,
// journal, server on 127.0.0.1 and an in-process replica where a workload
// needs one — drives it with a seeded design, checks every output against
// a model it computes itself, and prints the metrics by name and unit.
//
//	perfbench --workload <propagate|checkin-durable|team-mix> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  With --trace 0 the metrics are
// the end-to-end figures; with --trace 1 the run walks the layer stack
// instead and reports per-layer figures, writing its spans to a file.
// The run is one OS process and starts no other; it removes everything it
// created on every exit path, and stops with a non-zero exit at its
// deadline, on SIGINT/SIGTERM, or when the process that started it goes
// away.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/bpl"
)

// runCtx is what every workload gets: its inputs and its scratch space.
type runCtx struct {
	workload string
	seed     int64
	seconds  int
	tmp      string // per-run directory under the checkout, removed at exit
	traceOut string // span file of a traced run
	bp       *bpl.Blueprint
	cl       *cleanup
	start    time.Time
}

// stage notes on standard error which part of the run starts, so a run
// stopped at its deadline shows where it was.
func (rc *runCtx) stage(name string) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", time.Since(rc.start).Seconds(), name)
}

// dur is the measured-load length of the run.
func (rc *runCtx) dur() time.Duration { return time.Duration(rc.seconds) * time.Second }

type workloadFn func(rc *runCtx, rep *report) error

var workloads = map[string]workloadFn{
	"propagate":       runPropagate,
	"checkin-durable": runDurable,
	"team-mix":        runTeamMix,
}

// exitMu is taken by whichever of the normal exit and an abort comes
// first and never released, so a result is never printed after an abort
// started.
var exitMu sync.Mutex

func main() {
	workload := flag.String("workload", "", "workload: propagate, checkin-durable or team-mix")
	seed := flag.Int64("seed", 1, "seed of the design and the operation streams")
	seconds := flag.Int("seconds", 10, "length of the measured load, in seconds")
	trace := flag.Int("trace", 0, "1: traced layer-stack run with per-layer metrics")
	deadline := flag.Duration("deadline", 155*time.Second, "stop with a non-zero exit after this long")
	work := flag.String("dir", ".bench_build", "directory under which the run keeps its temporary files and span files")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	bp, err := bpl.Parse(bpl.EDTCExample)
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	tmp, err := os.MkdirTemp(*work, "run-*")
	if err != nil {
		fail(err)
	}
	rc := &runCtx{workload: *workload, seed: *seed, seconds: *seconds, tmp: tmp, bp: bp, cl: &cleanup{}, start: time.Now(),
		traceOut: filepath.Join(*work, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))}
	go watch(rc, *deadline)

	printJSONLine("host", hostFacts(tmp))
	rep := newReport()
	if *trace == 1 {
		fn = runTraced
	}
	err = guard(func() error { return fn(rc, rep) })
	if !exitMu.TryLock() {
		select {} // an abort is under way and ends the process
	}
	if cerr := rc.cl.run(); err == nil {
		err = cerr
	}
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if len(rep.extra) > 0 {
		printJSONLine("info", rep.extra)
	}
	printMetrics(rep.metrics)
	res := result{Correct: rep.checks.n == 0 && rep.failed == 0, Attempted: rep.attempted,
		Failed: rep.failed, Metrics: rep.metrics}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed operations, %s\n", *workload, rep.failed, &rep.checks)
	}
	printJSONLine("", res)
	if !res.Correct {
		os.Exit(1)
	}
}

// guard runs fn, turning a panic into an error so the run still
// releases what it holds.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// printJSONLine prints v as one line, behind "tag: " when tag is set.
func printJSONLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	if tag != "" {
		fmt.Printf("%s: %s\n", tag, b)
		return
	}
	fmt.Printf("%s\n", b)
}

// printMetrics prints one human-readable line per metric, sorted by name.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// cleanup is the run's undo list: every server, follower, journal and
// connection registers its close here when it is created, so the normal
// exit, a failed check and an abort all release the same things.
type cleanup struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleanup) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

// run calls every registered function once, newest first.  It returns an
// error only for a panic in one of them.
func (c *cleanup) run() (err error) {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		func() {
			defer func() {
				if p := recover(); p != nil && err == nil {
					err = fmt.Errorf("cleanup: %v", p)
				}
			}()
			fns[i]()
		}()
	}
	return err
}

// watch stops the run at its deadline, on a termination signal, or when
// the parent process goes away (the process is re-parented, so its parent
// pid changes).  It releases what the run holds, removes the run's
// directory and exits non-zero without printing a result.
func watch(rc *runCtx, deadline time.Duration) {
	ppid := os.Getppid()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	timer := time.NewTimer(deadline)
	tick := time.NewTicker(200 * time.Millisecond)
	var reason string
	for reason == "" {
		select {
		case <-timer.C:
			reason = fmt.Sprintf("deadline of %v reached", deadline)
		case s := <-sig:
			reason = "signal " + s.String()
		case <-tick.C:
			if os.Getppid() != ppid {
				reason = "parent process exited"
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: stopping: %s\n", reason)
	buf := make([]byte, 1<<20)
	fmt.Fprintf(os.Stderr, "perfbench: goroutines at the stop:\n%s\n", buf[:runtime.Stack(buf, true)])
	done := make(chan struct{})
	if exitMu.TryLock() {
		go func() {
			rc.cl.run()
			close(done)
		}()
	}
	// The normal exit may hold the lock and be closing the stacks
	// itself; either way, wait a bounded time for the release.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		fmt.Fprintln(os.Stderr, "perfbench: release did not finish in 10s; removing files anyway")
	}
	os.RemoveAll(rc.tmp)
	os.Exit(3)
}
