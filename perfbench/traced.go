package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpl"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/wire"
)

// The traced run.  The same seeded ckin BATCHes are driven through a
// cumulative stack, one layer added per level; the difference between
// adjacent levels is the cost of the layer added.  Each level runs an
// untraced slice (the per-level figures) and then a traced slice, which
// records a span around every call the benchmark makes into a layer.
// Probes of single layer functions follow.  Spans stay in memory and are
// written to a JSON-lines file when the run ends.

// span is one timed call into a layer.  Spans of one request share Req;
// Parent is the span that caused this one (0 for a request's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans.  A nil tracer records nothing and reads no
// clock, which is how the untraced slices run the same code.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// rec records the span id, which started at start and ends now.
func (t *tracer) rec(id, parent, req int64, name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// durations returns the lengths of the spans called name, in µs.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// via is how a level hands a BATCH to the stack.
type via int

const (
	viaEngine via = iota // engine.Post per item, then Drain
	viaHandle            // wire.ParseRequest, then Server.Handle
	viaTCP               // server.Client.PostBatch over 127.0.0.1
)

// level is one rung of the cumulative layer stack.
type level struct {
	name string // the layer this level adds
	opts stackOpts
	via  via
}

var levels = []level{
	{"engine", stackOpts{}, viaEngine},
	{"mvcc", stackOpts{mvcc: true}, viaEngine},
	{"journal", stackOpts{journal: true}, viaEngine},
	{"fsync", stackOpts{journal: true, fsync: true}, viaEngine},
	{"handle", stackOpts{journal: true, fsync: true, server: true}, viaHandle},
	{"tcp", stackOpts{journal: true, fsync: true, server: true, listen: true}, viaTCP},
	{"ack", stackOpts{journal: true, fsync: true, server: true, listen: true, follower: true}, viaTCP},
}

// workloadLevel is the level whose stack a workload runs on: its
// allocation and trace-overhead figures are taken there.
var workloadLevel = map[string]int{"propagate": 0, "checkin-durable": 6, "team-mix": 5}

// traceForest is the forest of every traced run.  It is checkin-durable's
// and not the workload's own: with propagate's forest (16384 OIDs, about
// 65k journal records) the follower of level ack did not catch up within
// a minute, and closing the server then hung on its FOLLOW streams (see
// README.md, Findings).
var traceForest = durableForest

// levelRun is what one slice of one level measured.
type levelRun struct {
	events  int64
	batches int64
	elapsed time.Duration
}

func (r levelRun) usPerEvent() float64 { return us(r.elapsed) / float64(r.events) }
func (r levelRun) usPerBatch() float64 { return us(r.elapsed) / float64(r.batches) }

func runTraced(rc *runCtx, rep *report) error {
	tr := &tracer{t0: time.Now()}
	slice := time.Duration(rc.seconds) * time.Second / 10

	var untraced, traced []levelRun
	for i, lv := range levels {
		rc.stage("level " + lv.name)
		// Each level gets a fresh forest and model and the same batches.
		trees := genForest(traceForest, rngFor(rc.seed, "forest"))
		st, err := newStack(rc, lv.opts, trees)
		if err != nil {
			return fmt.Errorf("level %s: %w", lv.name, err)
		}
		var c *server.Client
		if lv.via == viaTCP {
			if c, err = dial(rc, st.addr); err != nil {
				return err
			}
		}
		rng := rngFor(rc.seed, "ledger")
		var ms0, ms1 runtime.MemStats
		es0, lsn0, w0 := st.eng.Stats(), lsnOf(st), st.pfs.written.Load()
		runtime.ReadMemStats(&ms0)
		u, err := runLevel(st, lv, c, trees, rng, nil, slice)
		if err != nil {
			return fmt.Errorf("level %s: %w", lv.name, err)
		}
		runtime.ReadMemStats(&ms1)
		es1, lsn1, w1 := st.eng.Stats(), lsnOf(st), st.pfs.written.Load()
		t, err := runLevel(st, lv, c, trees, rng, tr, slice)
		if err != nil {
			return fmt.Errorf("level %s: %w", lv.name, err)
		}
		untraced, traced = append(untraced, u), append(traced, t)
		rep.attempted += u.events + t.events
		ev := float64(u.events)
		switch {
		case i == 0:
			rep.set("engine.post_us", "us", tr.durations("engine.Post").median())
			rep.set("engine.drain_us", "us", tr.durations("engine.Drain").median())
			rep.set("engine.deliveries_per_event", "count", float64(es1.Deliveries-es0.Deliveries)/ev)
			rep.set("engine.propagations_per_event", "count", float64(es1.Propagations-es0.Propagations)/ev)
			rep.set("engine.rules_fired_per_event", "count", float64(es1.RulesFired-es0.RulesFired)/ev)
		case lv.name == "fsync":
			rep.set("journal.records_per_event", "count", float64(lsn1-lsn0)/ev)
			rep.set("journal.bytes_per_event", "B", float64(w1-w0)/ev)
		}
		if i == workloadLevel[rc.workload] {
			rep.set("go.alloc_bytes_per_event", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ev)
			rep.set("go.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
			rep.set("trace.untraced_events_per_s", "1/s", ev/u.elapsed.Seconds())
			rep.set("trace.events_per_s", "1/s", float64(t.events)/t.elapsed.Seconds())
		}
		// Every level must end in the model's state.
		for _, tr := range trees {
			for _, k := range tr.m.keys {
				o, err := st.db.GetOID(k)
				if err != nil {
					rep.checks.failf("level %s: %v: %v", lv.name, k, err)
					continue
				}
				tr.m.verifyOID(&rep.checks, k, o.Props)
			}
		}
		if err := st.destroy(); err != nil {
			return err
		}
	}
	for i, lv := range levels {
		rep.set("stack."+lv.name+"_us_per_event", "us", untraced[i].usPerEvent())
	}
	diff := func(i int) float64 { return untraced[i].usPerEvent() - untraced[i-1].usPerEvent() }
	perBatch := func(i int) float64 { return untraced[i].usPerBatch() - untraced[i-1].usPerBatch() }
	rep.set("meta.mvcc_install_us_per_event", "us", diff(1))
	rep.set("journal.append_us_per_event", "us", diff(2))
	rep.set("journal.fsync_us_per_commit", "us", perBatch(3)) // one commit per drained batch
	rep.set("server.tcp_us", "us", perBatch(5))
	rep.set("replica.ack_wait_us", "us", perBatch(6))

	rc.stage("probes")
	if err := probeLayers(rc, rep, tr); err != nil {
		return err
	}
	rep.set("trace.spans", "count", float64(len(tr.spans)))
	return tr.write(rc.traceOut)
}

func lsnOf(st *stack) int64 {
	if st.jw == nil {
		return 0
	}
	return st.jw.LastLSN()
}

// runLevel drives BATCHes of durableBatch check-ins through one level
// for d, one at a time, and applies each to the model.
func runLevel(st *stack, lv level, c *server.Client, trees []*tree, rng *rand.Rand, tr *tracer, d time.Duration) (levelRun, error) {
	var r levelRun
	start := time.Now()
	for time.Since(start) < d {
		b := drawBatch(trees, rng)
		req := tr.id()
		root, t0 := tr.id(), tr.now()
		switch lv.via {
		case viaEngine:
			for _, ev := range b.ckins {
				id, s := tr.id(), tr.now()
				err := st.eng.Post(engine.Event{Name: engine.EventCheckin, Dir: bpl.DirDown, Target: ev.target, User: ev.user})
				tr.rec(id, root, req, "engine.Post", s)
				if err != nil {
					return r, err
				}
			}
			id, s := tr.id(), tr.now()
			err := st.eng.Drain()
			tr.rec(id, root, req, "engine.Drain", s)
			if err != nil {
				return r, err
			}
		case viaHandle:
			id, s := tr.id(), tr.now()
			q, err := wire.ParseRequest(b.request().Encode())
			tr.rec(id, root, req, "wire.ParseRequest", s)
			if err != nil {
				return r, err
			}
			id, s = tr.id(), tr.now()
			resp := st.srv.Handle(q)
			tr.rec(id, root, req, "server.Handle", s)
			if want := fmt.Sprintf("posted %d/%d", len(b.items), len(b.items)); !resp.OK || resp.Detail != want {
				return r, fmt.Errorf("BATCH answered %q, want %q", resp.Detail, want)
			}
		case viaTCP:
			c.User = b.user
			id, s := tr.id(), tr.now()
			n, err := c.PostBatch(b.items)
			tr.rec(id, root, req, "client.PostBatch", s)
			if err != nil || n != len(b.items) {
				return r, fmt.Errorf("BATCH posted %d/%d: %v", n, len(b.items), err)
			}
		}
		tr.rec(root, 0, req, "batch", t0)
		applyBatch(b.ckins)
		r.events += int64(len(b.ckins))
		r.batches++
	}
	r.elapsed = time.Since(start)
	return r, nil
}

// probeCount is how many times a probe times a cheap call.
const probeCount = 1000

// probeLayers times single layer functions on a journaled, fsynced,
// listening stack holding the trace forest.
func probeLayers(rc *runCtx, rep *report, tr *tracer) error {
	trees := genForest(traceForest, rngFor(rc.seed, "forest"))
	st, err := newStack(rc, stackOpts{journal: true, fsync: true, server: true, listen: true}, trees)
	if err != nil {
		return err
	}
	c, err := dial(rc, st.addr)
	if err != nil {
		return err
	}
	rng := rngFor(rc.seed, "probe")

	// wire and server: the lines the workload sends, parsed and handled
	// without a socket.
	lines := workloadLines(rc, trees, rng)
	var parse, handle samples
	for i, line := range lines {
		req := tr.id()
		id, t0 := tr.id(), time.Now()
		q, err := wire.ParseRequest(line)
		if err == nil && q.Verb == wire.VerbBatch {
			for _, a := range q.Args {
				if _, err = wire.ParseBatchItem(a); err != nil {
					break
				}
			}
		}
		parse = append(parse, us(time.Since(t0)))
		tr.rec(id, 0, req, "wire.parse", t0)
		if err != nil {
			return fmt.Errorf("parse line %d: %w", i, err)
		}
		id, t0 = tr.id(), time.Now()
		resp := st.srv.Handle(q)
		handle = append(handle, us(time.Since(t0)))
		tr.rec(id, 0, req, "server.Handle", t0)
		if !resp.OK {
			rep.checks.failf("Handle %q: %s", line, resp.Detail)
		}
	}
	rep.set("wire.parse_us", "us", parse.median())
	rep.set("server.handle_us", "us", handle.median())

	// meta: view pinning and a reachability walk on a pinned view.
	var pin, reach samples
	for i := 0; i < probeCount; i++ {
		t0 := time.Now()
		v := st.db.ReadView()
		pin = append(pin, us(time.Since(t0)))
		root := trees[rng.Intn(len(trees))].nodes[0].s
		t0 = time.Now()
		keys := v.Reachable(root, meta.FollowUseLinks)
		reach = append(reach, us(time.Since(t0)))
		v.Close()
		if len(keys) == 0 {
			rep.checks.failf("Reachable(%v) is empty", root)
		}
	}
	rep.set("meta.view_pin_us", "us", pin.median())
	rep.set("meta.reach_us", "us", reach.median())

	// state and server: the whole-table report on a pinned view, and
	// REPORT over TCP, whose difference is the server's streaming cost.
	var stream, remote samples
	for i := 0; i < 20; i++ {
		v := st.db.ReadView()
		rows := 0
		t0 := time.Now()
		state.StreamSortedView(v, rc.bp, func(*state.OIDState) bool { rows++; return true })
		stream = append(stream, ms(time.Since(t0)))
		v.Close()
		t0 = time.Now()
		body, err := c.Report()
		if err != nil {
			return err
		}
		remote = append(remote, ms(time.Since(t0)))
		if len(body) != rows {
			rep.checks.failf("REPORT: %d rows over TCP, %d streamed", len(body), rows)
		}
	}
	rep.set("state.report_ms", "ms", stream.median())
	rep.set("server.report_stream_ms", "ms", remote.median()-stream.median())

	// journal: replay and follower catch-up of everything written so far
	// (no snapshot yet, so both go record by record).
	lsn := st.jw.LastLSN()
	if err := st.jw.Commit(); err != nil {
		return err
	}
	t0 := time.Now()
	_, replayed, err := journal.Replay(filepath.Join(st.dir, "primary"), meta.DefaultShards)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rep.set("journal.replay_records_per_s", "1/s", float64(replayed)/time.Since(t0).Seconds())
	if replayed != lsn {
		rep.checks.failf("replay reached lsn %d, journal is at %d", replayed, lsn)
	}
	dir, err := os.MkdirTemp(rc.tmp, "catchup-*")
	if err != nil {
		return err
	}
	t0 = time.Now()
	f, err := replica.Start(dir, st.addr, journal.Options{Fsync: true})
	if err != nil {
		return err
	}
	rc.cl.add(func() { _ = f.Close() })
	if _, err := f.WaitApplied(lsn, time.Minute); err != nil {
		return fmt.Errorf("catch-up: %w", err)
	}
	rep.set("replica.catchup_records_per_s", "1/s", float64(lsn)/time.Since(t0).Seconds())
	if err := f.Close(); err != nil {
		return err
	}

	// journal: Commit after a churn step (CREATE + LINK through the
	// engine), and Snapshot after a small write.
	var commit, snap samples
	for i := 0; i < 200; i++ {
		parent := trees[rng.Intn(len(trees))].nodes[0].s
		k, err := st.eng.CreateOID(fmt.Sprintf("probe%04d", i), "schematic", "probe")
		if err == nil {
			_, err = st.eng.CreateLink(meta.UseLink, parent, k)
		}
		if err != nil {
			return err
		}
		req, id := tr.id(), tr.id()
		t0 := time.Now()
		if err := st.jw.Commit(); err != nil {
			return err
		}
		commit = append(commit, us(time.Since(t0)))
		tr.rec(id, 0, req, "journal.Commit", t0)
		if i%40 == 0 {
			t0 := time.Now()
			if err := st.jw.Snapshot(); err != nil {
				return err
			}
			snap = append(snap, ms(time.Since(t0)))
		}
	}
	rep.set("journal.commit_us", "us", commit.median())
	rep.set("journal.snapshot_ms", "ms", snap.median())
	if err := st.eng.Drain(); err != nil {
		return err
	}

	// The open-loop generator: team-mix operations at the team-mix rate
	// for one slice, for how late the generator runs.
	late, err := probeGenerator(rc, rep)
	if err != nil {
		return err
	}
	rep.set("gen.late_ms", "ms", late)
	c.Close()
	return st.destroy()
}

// workloadLines draws the request lines the workload sends: team-mix
// operations, or ckin BATCHes.
func workloadLines(rc *runCtx, trees []*tree, rng *rand.Rand) []string {
	var lines []string
	if rc.workload == "team-mix" {
		for _, o := range drawOps(trees, 400, rc) {
			lines = append(lines, o.request().Encode())
			if o.kind == opChurn {
				lines = append(lines, o.link().Encode())
			}
		}
		return lines
	}
	for i := 0; i < 100; i++ {
		lines = append(lines, drawBatch(trees, rng).request().Encode())
	}
	return lines
}

// probeGenerator runs a short team-mix load on its own stack and returns
// the generator's p99 lateness in ms.
func probeGenerator(rc *runCtx, rep *report) (float64, error) {
	trees := genForest(teamForest, rngFor(rc.seed, "forest"))
	st, err := newStack(rc, teamStack, trees)
	if err != nil {
		return 0, err
	}
	c, err := dial(rc, st.addr)
	if err != nil {
		return 0, err
	}
	n := teamRate * max(1, rc.seconds/10)
	cl := &teamClient{c: c, lat: make([][]float64, len(teamMix)), ops: drawOps(trees, n, rc)}
	cl.run(time.Now(), &churnLog{sent: map[meta.Key]bool{}})
	rep.checks.merge(&cl.ck)
	rep.attempted += int64(n)
	c.Close()
	return cl.late.percentile(99), st.destroy()
}
