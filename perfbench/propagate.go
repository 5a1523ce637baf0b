package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/state"
)

// propagate: the library path.  Two goroutines post seeded batches of
// ckin at random nodes of deep trees through engine.Post and Drain on a
// plain NewDB (MVCC off), as repro.NewProject gives.  Wire, server,
// journal and replica do no work here.
var propagateForest = forestSpec{Trees: 64, Nodes: 64, Window: 8}

// propagateBatch is the number of check-ins per Post…Drain batch.
const propagateBatch = 32

func runPropagate(rc *runCtx, rep *report) error {
	trees := genForest(propagateForest, rngFor(rc.seed, "forest"))
	st, setup, err := setupStack(rc, stackOpts{}, trees)
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)

	owners := split(trees, 2)
	rc.stage("load")
	runtime.GC() // start the load on a settled heap, not the set-ups' garbage
	cpu0 := cpuTime()
	var (
		turn   sync.Mutex // see below
		wg     sync.WaitGroup
		done   = make([][]completion, len(owners))
		posted = make([][][]ckin, len(owners)) // per goroutine, per batch
		errs   = make([]error, len(owners))
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
					// The goroutines take turns: a Drain that finds
					// another in flight returns before its own events
					// are applied, and that other Drain then keeps
					// delivering whatever is posted meanwhile until the
					// engine's step limit stops it.
					turn.Lock()
					t0 := time.Now()
					batch := make([]ckin, 0, propagateBatch)
					for i := 0; i < propagateBatch; i++ {
						ev := drawCkin(own, rng)
						if err := st.eng.Post(engine.Event{Name: engine.EventCheckin, Dir: bpl.DirDown,
							Target: ev.target, User: ev.user}); err != nil {
							turn.Unlock()
							return fmt.Errorf("post %v: %w", ev.target, err)
						}
						batch = append(batch, ev)
					}
					posted[g] = append(posted[g], batch)
					err := st.eng.Drain()
					now := time.Now()
					done[g] = append(done[g], completion{at: now.Sub(start), n: len(batch), lat: ms(now.Sub(t0))})
					turn.Unlock()
					if err != nil {
						return fmt.Errorf("drain: %w", err)
					}
				}
				return nil
			})
		}(g, own)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var all []completion
	for g := range owners {
		all = append(all, done[g]...)
		for _, batch := range posted[g] {
			rep.attempted += int64(len(batch))
			applyBatch(batch)
		}
	}
	rep.note("cpu_us_per_op", "us", us(cpu)/float64(rep.attempted))
	rate, p50, p90 := windowed(all, rc.dur(), elapsed)
	rep.set("events_per_s", "1/s", rate)
	rep.set("write_p50_ms", "ms", p50)
	rep.note("write_p90_ms", "ms", p90)

	// Output check through the library's read path: every OID's state
	// against the model.  A read takes a few microseconds, so each tree's
	// reads are timed together and read_p50_ms is the median over trees
	// of the time per read.
	rc.stage("verify")
	runtime.GC()
	var reads samples
	for _, tr := range trees {
		t0 := time.Now()
		for _, k := range tr.m.keys {
			o, err := st.db.GetOID(k)
			if err != nil {
				rep.checks.failf("read %v: %v", k, err)
				continue
			}
			_ = state.Evaluate(rc.bp, o)
		}
		reads = append(reads, ms(time.Since(t0))/float64(len(tr.m.keys)))
		for _, k := range tr.m.keys {
			if o, err := st.db.GetOID(k); err == nil {
				tr.m.verifyOID(&rep.checks, k, o.Props)
			}
		}
	}
	rep.note("read_p50_ms", "ms", reads.median())

	rc.stage("recover")
	// Restart: the library persists with Save and restarts with Load.
	doc, err := saveBytes(st.db)
	if err != nil {
		return err
	}
	if err := st.destroy(); err != nil {
		return err
	}
	var loads samples
	for i := 0; i < recoverRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		db, err := meta.Load(bytes.NewReader(doc))
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		loads = append(loads, time.Since(t0).Seconds())
		if i == 0 {
			checkSame(&rep.checks, "reloaded DB", db, doc)
		}
	}
	rep.note("recover_s", "s", loads.median())
	rep.set("max_rss_mb", "MiB", maxRSSMiB())
	return nil
}

// recoverRuns is how many times a run times its restart path; recover_s
// is the median.
const recoverRuns = 7

// drawCkin draws one check-in on the given trees.
func drawCkin(own []*tree, rng *rand.Rand) ckin {
	tr := own[rng.Intn(len(own))]
	return ckin{tr: tr, target: tr.ckinTarget(rng), user: users[rng.Intn(len(users))]}
}

// split deals the trees round-robin to n owners.
func split(trees []*tree, n int) [][]*tree {
	out := make([][]*tree, n)
	for i, tr := range trees {
		out[i%n] = append(out[i%n], tr)
	}
	return out
}

// rngFor derives an independent random stream from the run seed and a
// purpose tag, so adding a stream never shifts another.
func rngFor(seed int64, tag string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// checkSame compares db's canonical Save document with want.
func checkSame(c *checks, what string, db *meta.DB, want []byte) {
	got, err := saveBytes(db)
	if err != nil {
		c.failf("%s: save: %v", what, err)
		return
	}
	if !bytes.Equal(got, want) {
		c.failf("%s: Save differs (%d bytes, want %d)", what, len(got), len(want))
	}
}

// cpuTime is the CPU time the process has used, user and system.  A
// guest kernel with steal-time accounting leaves out the time the host
// ran someone else on the virtual CPU, so on a shared host this moves far
// less from run to run than wall-clock rates do.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
