package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wire"
)

// checkin-durable: the production write path.  A journaled primary with
// fsync on and one in-process follower at quorum ack 1; two TCP
// connections in a closed loop, each sending BATCHes of ckin spread over
// the trees it owns, so drains run in parallel across components.  After
// the load the primary is closed, its recovery is timed, and a fresh
// follower's catch-up from empty is timed.
var durableForest = forestSpec{Trees: 64, Nodes: 32, Window: 8}

// durableStack is the production configuration with fsync off.  On a
// shared host the disk's fsync latency moves by a third from one run to
// the next, which no length of run averages out, so the end-to-end
// figures commit to the operating system only; the traced run measures
// fsync itself (journal.fsync_us_per_commit).
var durableStack = stackOpts{journal: true, server: true, listen: true, follower: true}

// durableConns is the number of client connections in the closed loop.
const durableConns = 2

// durableBatch is the number of ckin items per BATCH; each item goes to
// a different tree of the connection's own.
const durableBatch = 32

func runDurable(rc *runCtx, rep *report) error {
	trees := genForest(durableForest, rngFor(rc.seed, "forest"))
	st, setup, err := setupStack(rc, durableStack, trees)
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)
	owners := split(trees, durableConns)
	conns, err := dialN(rc, st.addr, len(owners))
	if err != nil {
		return err
	}

	rc.stage("load")
	runtime.GC() // start the load on a settled heap, not the set-ups' garbage
	cpu0 := cpuTime()
	written0 := st.pfs.written.Load() + st.ffs.written.Load()
	var (
		wg      sync.WaitGroup
		done    = make([][]completion, len(owners))
		batches = make([][][]ckin, len(owners))
		failed  = make([]int64, len(owners))
		errs    = make([]error, len(owners))
	)
	start := time.Now()
	stopAt := start.Add(rc.dur())
	for g, own := range owners {
		wg.Add(1)
		go func(g int, own []*tree) {
			defer wg.Done()
			errs[g] = guard(func() error {
				rng := rngFor(rc.seed, fmt.Sprintf("load-%d", g))
				for time.Now().Before(stopAt) {
					b := drawBatch(own, rng)
					conns[g].User = b.user
					t0 := time.Now()
					n, err := conns[g].PostBatch(b.items)
					now := time.Now()
					done[g] = append(done[g], completion{at: now.Sub(start), n: len(b.ckins), lat: ms(now.Sub(t0))})
					if err != nil || n != len(b.items) {
						failed[g] += int64(len(b.items) - n)
						return fmt.Errorf("BATCH posted %d/%d: %v", n, len(b.items), err)
					}
					batches[g] = append(batches[g], b.ckins)
				}
				return nil
			})
		}(g, own)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	var events int64
	var all []completion
	for g := range owners {
		if errs[g] != nil {
			return errs[g]
		}
		all = append(all, done[g]...)
		rep.failed += failed[g]
		for _, b := range batches[g] {
			events += int64(len(b))
			applyBatch(b)
		}
	}
	rep.attempted = events + rep.failed
	rep.note("cpu_us_per_op", "us", us(cpu)/float64(events))
	rate, p50, p90 := windowed(all, rc.dur(), elapsed)
	rep.set("events_per_s", "1/s", rate)
	rep.set("write_p50_ms", "ms", p50)
	rep.note("write_p90_ms", "ms", p90)
	rep.note("storage_bytes_per_event", "B", float64(st.pfs.written.Load()+st.ffs.written.Load()-written0)/float64(events))

	// Output checks: every OID through STATE against the model (these
	// reads are read_p50_ms), then the follower against the primary.
	rc.stage("verify")
	runtime.GC()
	reads := verifyState(conns[0], trees, &rep.checks)
	rep.note("read_p50_ms", "ms", reads.median())
	final := st.jw.LastLSN()
	if _, err := st.fol.WaitApplied(final, time.Minute); err != nil {
		return err
	}
	live, err := saveBytes(st.db)
	if err != nil {
		return err
	}
	checkSame(&rep.checks, "follower", st.fol.DB(), live)
	for _, c := range conns {
		c.Close()
	}
	if err := st.close(); err != nil {
		return err
	}
	checkSame(&rep.checks, "primary after close", st.db, live)

	rc.stage("recover")
	jw, recover, err := timeRecovery(rc, filepath.Join(st.dir, "primary"), live, &rep.checks)
	if err != nil {
		return err
	}
	rep.note("recover_s", "s", recover)
	rc.stage("catch-up")
	catchup, err := timeCatchup(rc, jw, live, &rep.checks)
	if err != nil {
		return err
	}
	rep.note("catchup_s", "s", catchup)
	rep.set("max_rss_mb", "MiB", maxRSSMiB())
	return nil
}

// batch is one drawn BATCH: the check-ins for the model, the items sent
// and the user they are attributed to.
type batch struct {
	ckins []ckin
	items []wire.BatchItem
	user  string
}

// request is the BATCH request line the client sends for b.
func (b batch) request() wire.Request {
	args := make([]string, len(b.items))
	for i, it := range b.items {
		args[i] = it.Encode()
	}
	return wire.Request{Verb: wire.VerbBatch, Args: args, User: b.user}
}

// drawBatch draws one BATCH: a check-in at a random node of each of
// durableBatch distinct owned trees, attributed to one random user.
func drawBatch(own []*tree, rng *rand.Rand) batch {
	b := batch{user: users[rng.Intn(len(users))]}
	perm := rng.Perm(len(own))
	for _, i := range perm[:min(durableBatch, len(own))] {
		tr := own[i]
		ev := ckin{tr: tr, target: tr.ckinTarget(rng), user: b.user}
		b.ckins = append(b.ckins, ev)
		b.items = append(b.items, wire.BatchItem{Event: engine.EventCheckin, Dir: "down", OID: ev.target.String()})
	}
	return b
}

// dialN opens n connections to addr, registered for cleanup.
func dialN(rc *runCtx, addr string, n int) ([]*server.Client, error) {
	conns := make([]*server.Client, n)
	for i := range conns {
		c, err := dial(rc, addr)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

// verifyState reads every OID of the forest with STATE over c, checks it
// against the model and returns the read latencies.
func verifyState(c *server.Client, trees []*tree, ck *checks) samples {
	var reads samples
	for _, tr := range trees {
		for _, k := range tr.m.keys {
			t0 := time.Now()
			st, err := c.State(k)
			reads = append(reads, ms(time.Since(t0)))
			if err != nil {
				ck.failf("STATE %v: %v", k, err)
				continue
			}
			tr.m.verifyOID(ck, k, st.Props)
		}
	}
	return reads
}

// timeRecovery reopens the closed primary's journal recoverRuns times and
// returns the median time; the first recovered DB must Save byte-identical
// to want.  The last writer stays open for the catch-up measurement and
// is registered for cleanup.
func timeRecovery(rc *runCtx, dir string, want []byte, ck *checks) (*journal.Writer, float64, error) {
	var times samples
	var jw *journal.Writer
	for i := 0; i < recoverRuns; i++ {
		if jw != nil {
			if err := jw.Close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		w, db, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		jw = w
		rc.cl.add(func() { _ = w.Close() })
		if i == 0 {
			checkSame(ck, "recovered journal", db, want)
		}
	}
	return jw, times.median(), nil
}

// timeCatchup serves jw's journal and times a fresh follower from empty
// to jw's last LSN, recoverRuns times; the first follower must Save
// byte-identical to want.
func timeCatchup(rc *runCtx, jw *journal.Writer, want []byte, ck *checks) (float64, error) {
	eng, err := engine.New(jw.DB(), rc.bp, engine.WithJournal(jw))
	if err != nil {
		return 0, err
	}
	srv := server.New(eng, server.WithJournal(jw), server.WithFollowSource(replica.NewSource(jw)))
	rc.cl.add(func() { _ = srv.Close() })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var times samples
	for i := 0; i < recoverRuns; i++ {
		dir, err := os.MkdirTemp(rc.tmp, "fresh-*")
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		f, err := replica.Start(dir, addr, journal.Options{})
		if err != nil {
			return 0, err
		}
		rc.cl.add(func() { _ = f.Close() })
		if _, err := f.WaitApplied(jw.LastLSN(), time.Minute); err != nil {
			return 0, fmt.Errorf("catch-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			checkSame(ck, "fresh follower", f.DB(), want)
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	if err := srv.Close(); err != nil {
		return 0, err
	}
	return times.median(), jw.Close()
}
