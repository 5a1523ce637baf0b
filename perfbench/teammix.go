package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/server"
	"repro/internal/wire"
)

// team-mix: independent designers and managers as an open loop at one
// fixed rate below saturation, against a journaled primary (fsync off,
// see durableStack) and no follower.  About 70% of the operations read.  Each tree's
// operations always go through the same one of two connections, so the
// model of every tree is exact when its reads arrive.
var teamForest = forestSpec{Trees: 32, Nodes: 16, Window: 4}

// teamStack is durableStack without the follower.
var teamStack = stackOpts{journal: true, server: true, listen: true}

// teamRate is the offered load in operations per second; README.md says
// how it was chosen.
const teamRate = 200

// opKind is one class of team-mix operation.
type opKind int

const (
	opCkin   opKind = iota // POST ckin at a schematic or HDL_model
	opSim                  // POST hdl_sim at an HDL_model
	opState                // STATE of one OID
	opReach                // QUERY reach over use links from a schematic
	opDeps                 // QUERY deps over all links from an OID
	opReport               // REPORT or GAP over the whole table
	opChurn                // CREATE a schematic block, LINK it under a node
)

// teamMix is the operation mix in percent, in opKind order.
var teamMix = []int{15, 10, 38, 15, 15, 2, 5}

var opNames = []string{"post", "post", "state", "query", "query", "report", "churn"}

func (k opKind) write() bool { return k == opCkin || k == opSim || k == opChurn }

// op is one scheduled operation.
type op struct {
	at     time.Duration // due time after the start of the load
	kind   opKind
	tr     *tree
	target meta.Key // the OID acted on; the parent schematic for churn
	user   string
	arg    string // hdl_sim result, or the churn block
	gap    bool   // opReport: GAP instead of REPORT
}

// drawOps draws the whole schedule: n operations, evenly spaced.  How
// many of each kind there are is fixed by the mix (the remainder of the
// rounding goes to STATE), so every run of the same length does the same
// number of check-ins; the seed shuffles their order and draws every
// operation's tree, target, user and arguments.
func drawOps(trees []*tree, n int, rc *runCtx) []op {
	rng := rngFor(rc.seed, "ops")
	kinds := make([]opKind, 0, n)
	for k, pct := range teamMix {
		for i := 0; i < n*pct/100; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, opState)
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]op, n)
	for i := range ops {
		o := op{at: time.Duration(i) * time.Second / teamRate, kind: kinds[i],
			tr: trees[rng.Intn(len(trees))], user: users[rng.Intn(len(users))]}
		nd := o.tr.nodes[rng.Intn(len(o.tr.nodes))]
		switch o.kind {
		case opCkin:
			o.target = o.tr.ckinTarget(rng)
		case opSim:
			o.target = nd.h
			o.arg = []string{"good", "bad"}[rng.Intn(2)]
		case opState, opDeps:
			o.target = []meta.Key{nd.h, nd.s, nd.n, nd.l}[rng.Intn(4)]
		case opReach:
			o.target = nd.s
		case opReport:
			o.gap = rng.Intn(2) == 0
		case opChurn:
			o.target = nd.s
			o.arg = fmt.Sprintf("t%03dc%04d", o.tr.id, o.tr.churn)
			o.tr.churn++
		}
		ops[i] = o
	}
	return ops
}

// churnLog is the shared account of churn blocks: every block a CREATE
// was sent for, and the keys acknowledged, in acknowledgement order.
type churnLog struct {
	mu    sync.Mutex
	sent  map[meta.Key]bool
	acked []meta.Key
}

func (c *churnLog) send(k meta.Key) {
	c.mu.Lock()
	c.sent[k] = true
	c.mu.Unlock()
}

func (c *churnLog) ack(k meta.Key) {
	c.mu.Lock()
	c.acked = append(c.acked, k)
	c.mu.Unlock()
}

func (c *churnLog) nAcked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.acked)
}

// tableRead is a REPORT or GAP body kept for checking after the load,
// with how many churn blocks had been acknowledged when it was sent.
type tableRead struct {
	gap   bool
	acked int
	body  []string
}

// teamClient is one connection's share of the load and its findings.
type teamClient struct {
	c      *server.Client
	ops    []op
	lat    [][]float64 // per opKind, ms from the due time; see run
	late   samples     // ms the send ran behind its ready time; see run
	tables []tableRead
	ck     checks
	ckins  int
	last   time.Time
}

func runTeamMix(rc *runCtx, rep *report) error {
	trees := genForest(teamForest, rngFor(rc.seed, "forest"))
	st, setup, err := setupStack(rc, teamStack, trees)
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)
	setupKeys := map[meta.Key]bool{}
	for _, tr := range trees {
		for _, k := range tr.m.keys {
			setupKeys[k] = true
		}
	}
	ops := drawOps(trees, teamRate*rc.seconds, rc)
	conns, err := dialN(rc, st.addr, 2)
	if err != nil {
		return err
	}
	clients := make([]*teamClient, len(conns))
	for i, c := range conns {
		clients[i] = &teamClient{c: c, lat: make([][]float64, len(teamMix))}
	}
	for _, o := range ops {
		cl := clients[o.tr.id%len(clients)]
		cl.ops = append(cl.ops, o)
	}
	churn := &churnLog{sent: map[meta.Key]bool{}}

	rc.stage("load")
	runtime.GC() // start the load on a settled heap, not the set-ups' garbage
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *teamClient) {
			defer wg.Done()
			errs[i] = guard(func() error { cl.run(start, churn); return nil })
		}(i, cl)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var end time.Time
	for i, cl := range clients {
		if errs[i] != nil {
			return errs[i]
		}
		if cl.last.After(end) {
			end = cl.last
		}
	}
	rep.attempted = int64(len(ops))
	rep.note("cpu_us_per_op", "us", us(cpu)/float64(len(ops)))

	var writes, reads, all, late samples
	perClass := map[string]samples{}
	ckins := 0
	for _, cl := range clients {
		rep.checks.merge(&cl.ck)
		ckins += cl.ckins
		late = append(late, cl.late...)
		for k, l := range cl.lat {
			all = append(all, l...)
			perClass[opNames[k]] = append(perClass[opNames[k]], l...)
			if opKind(k).write() {
				writes = append(writes, l...)
			} else {
				reads = append(reads, l...)
			}
		}
	}
	// The schedule fixes the number of check-ins, so this is the offered
	// rate (30/s) for as long as the server keeps up; it falls only when
	// a connection saturates and the last operation ends late.
	rep.set("events_per_s", "1/s", float64(ckins)/end.Sub(start).Seconds())
	rep.set("write_p50_ms", "ms", writes.percentile(50))
	rep.note("write_p90_ms", "ms", writes.percentile(90))
	rep.note("read_p50_ms", "ms", reads.percentile(50))
	for _, name := range []string{"post", "state", "query", "report", "churn"} {
		rep.note(name+"_p50_ms", "ms", perClass[name].percentile(50))
	}
	rep.note("ops_p99_ms", "ms", all.percentile(99))
	rep.note("gen_late_p50_ms", "ms", late.percentile(50))
	rep.note("gen_late_p99_ms", "ms", late.percentile(99))

	rc.stage("verify")
	// Table reads, checked now that the whole churn history is known.
	mayExist := func(k meta.Key) bool { return setupKeys[k] || churn.sent[k] }
	for _, cl := range clients {
		for _, t := range cl.tables {
			checkTable(&rep.checks, t, setupKeys, churn.acked[:t.acked], mayExist)
		}
	}
	// The final table holds exactly the setup OIDs and the acked churn.
	final, err := conns[0].Report()
	if err != nil {
		return err
	}
	acked := map[meta.Key]bool{}
	for _, k := range churn.acked {
		acked[k] = true
	}
	checkTable(&rep.checks, tableRead{acked: len(churn.acked), body: final}, setupKeys, churn.acked,
		func(k meta.Key) bool { return setupKeys[k] || acked[k] })
	verifyState(conns[0], trees, &rep.checks)

	live, err := saveBytes(st.db)
	if err != nil {
		return err
	}
	for _, c := range conns {
		c.Close()
	}
	if err := st.close(); err != nil {
		return err
	}
	st.drop()
	rc.stage("recover")
	jw, recover, err := timeRecovery(rc, filepath.Join(st.dir, "primary"), live, &rep.checks)
	if err != nil {
		return err
	}
	rep.note("recover_s", "s", recover)
	if err := jw.Close(); err != nil {
		return err
	}
	rep.set("max_rss_mb", "MiB", maxRSSMiB())
	return nil
}

// run executes the client's operations in due order.  An operation's
// latency runs from its due time, so time it waits behind a slow
// operation on the same connection counts.  gen_late is apart from that:
// how long after the operation could first be sent (its due time, or the
// end of the previous operation if that ran past it) the send started.
func (cl *teamClient) run(start time.Time, churn *churnLog) {
	var prev time.Time
	for _, o := range cl.ops {
		due := start.Add(o.at)
		ready := due
		if prev.After(ready) {
			ready = prev
		}
		waitUntil(ready)
		cl.late = append(cl.late, ms(time.Since(ready)))
		cl.do(o, churn)
		prev = time.Now()
		cl.lat[o.kind] = append(cl.lat[o.kind], ms(prev.Sub(due)))
	}
	cl.last = prev
}

// spinWindow is how long before a due time the generator stops sleeping
// and spins.  time.Sleep overshoots by about half a millisecond on small
// hosts; slept to the due time, that overshoot would count in every
// latency measured from it.
const spinWindow = time.Millisecond

// waitUntil returns at t, or at once if t has passed.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// request is the request do sends for the operation, as the traced run
// parses and handles it; a churn operation's is its CREATE, followed by
// link().
func (o op) request() wire.Request {
	req := wire.Request{User: o.user}
	switch o.kind {
	case opCkin:
		req.Verb, req.Args = wire.VerbPost, []string{engine.EventCheckin, "down", o.target.String()}
	case opSim:
		req.Verb, req.Args = wire.VerbPost, []string{"hdl_sim", "down", o.target.String(), o.arg}
	case opState:
		req.Verb, req.Args = wire.VerbState, []string{o.target.String()}
	case opReach:
		req.Verb, req.Args = wire.VerbQuery, []string{"0", "reach", o.target.String(), "use"}
	case opDeps:
		req.Verb, req.Args = wire.VerbQuery, []string{"0", "deps", o.target.String(), "all"}
	case opReport:
		req.Verb = wire.VerbReport
		if o.gap {
			req.Verb = wire.VerbGap
		}
	case opChurn:
		req.Verb, req.Args = wire.VerbCreate, []string{o.arg, "schematic"}
	}
	return req
}

// link is a churn operation's second request.
func (o op) link() wire.Request {
	return wire.Request{Verb: wire.VerbLink, Args: []string{"use", o.target.String(), key(o.arg, "schematic").String()}, User: o.user}
}

// do sends one operation and checks its answer against the model.  An
// error, from the transport or an ERR answer, is a check failure.
func (cl *teamClient) do(o op, churn *churnLog) {
	c, m := cl.c, o.tr.m
	c.User = o.user
	var err error
	switch o.kind {
	case opCkin:
		if err = c.PostEvent(engine.EventCheckin, "down", o.target); err == nil {
			applyBatch([]ckin{{tr: o.tr, target: o.target, user: o.user}})
			cl.ckins++
		}
	case opSim:
		err = c.PostEvent("hdl_sim", "down", o.target, o.arg)
	case opState:
		var st server.OIDState
		if st, err = c.State(o.target); err == nil {
			m.verifyOID(&cl.ck, o.target, st.Props)
		}
	case opReach, opDeps:
		kind, follow, want := "reach", "use", m.reach
		if o.kind == opDeps {
			kind, follow, want = "deps", "all", m.deps
		}
		var body []string
		if body, err = c.QueryAt(0, kind, o.target.String(), follow); err == nil {
			checkKeys(&cl.ck, kind+" "+o.target.String(), body, want(o.target))
		}
	case opReport:
		t := tableRead{gap: o.gap, acked: churn.nAcked()}
		if o.gap {
			t.body, err = c.Gap()
		} else {
			t.body, err = c.Report()
		}
		if err == nil {
			cl.tables = append(cl.tables, t)
		}
	case opChurn:
		err = cl.churn(o, churn)
	}
	if err != nil {
		cl.ck.failf("%s %v: %v", opNames[o.kind], o.target, err)
	}
}

// churn creates a schematic block and links it under o.target.
func (cl *teamClient) churn(o op, churn *churnLog) error {
	k := key(o.arg, "schematic")
	churn.send(k)
	got, err := cl.c.Create(o.arg, "schematic")
	if err != nil {
		return err
	}
	if got != k {
		return fmt.Errorf("CREATE %s answered %v, want %v", o.arg, got, k)
	}
	churn.ack(k)
	o.tr.m.addOID(k)
	if err := cl.c.Link("use", o.target, k); err != nil {
		return err
	}
	o.tr.m.addEdge(o.target, k, true)
	return nil
}

// checkKeys compares a key-list response body with the model's set.
func checkKeys(ck *checks, what string, body []string, want []meta.Key) {
	w := make([]string, len(want))
	for i, k := range want {
		w[i] = k.String()
	}
	sort.Strings(w)
	got := append([]string(nil), body...)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(w, " ") {
		ck.failf("%s: got %d keys %v, model has %d %v", what, len(got), trunc(got), len(w), trunc(w))
	}
}

func trunc(s []string) []string { return s[:min(len(s), 6)] }

// checkTable checks a REPORT or GAP body: every row names an OID the
// benchmark created (or sent a CREATE for), readiness matches the policy
// (schematic and layout can never be ready in this design; the other
// views have no state rule), and every OID acknowledged before the read
// was sent is there — in a GAP, every one that cannot be ready.
func checkTable(ck *checks, t tableRead, setup map[meta.Key]bool, acked []meta.Key, mayExist func(meta.Key) bool) {
	seen := map[meta.Key]bool{}
	for _, row := range t.body {
		f := strings.Fields(row)
		if len(f) < 2 {
			ck.failf("table row %q", row)
			continue
		}
		k, err := meta.ParseKey(f[0])
		if err != nil || !mayExist(k) {
			ck.failf("table row %q: key the benchmark never created", row)
			continue
		}
		seen[k] = true
		wantReady := k.View != "schematic" && k.View != "layout"
		if f[1] != "ready="+strconv.FormatBool(wantReady) {
			ck.failf("table row %q: want ready=%v", row, wantReady)
		}
	}
	must := func(k meta.Key) {
		if (!t.gap || k.View == "schematic" || k.View == "layout") && !seen[k] {
			ck.failf("table (gap=%v) misses %v", t.gap, k)
		}
	}
	for k := range setup {
		must(k)
	}
	for _, k := range acked {
		must(k)
	}
}
