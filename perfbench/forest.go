package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/meta"
)

// The design input: a seeded forest of schematic hierarchies under the
// paper's EDTC_example policy.  Every hierarchy node is one block with
// four OIDs — HDL_model, schematic, netlist and layout — joined by
// HDL_model→schematic, schematic→netlist and schematic→layout derive
// links; a use link joins each parent schematic to its child.  Under that
// policy every link propagates outofdate downward, which gives the model
// rule the checks rest on (applyBatch): "ckin X" leaves X up to date and
// every OID reachable from X along outgoing links out of date.

// forestSpec sizes one workload's forest.  Node i > 0 of a tree picks
// its parent uniformly among the window nodes created just before it,
// so trees are deep (depth ≈ 2·nodes/window) rather than bushy.
type forestSpec struct {
	Trees, Nodes, Window int
}

// hnode is one hierarchy node: its block and its four OIDs.
type hnode struct {
	parent     int // index in tree.nodes; -1 for the root
	h, s, n, l meta.Key
}

// tree is one hierarchy plus the model of its state.  A tree is written
// by exactly one client goroutine, so its model needs no lock.
type tree struct {
	id    int
	nodes []hnode
	m     *model
	churn int // churn blocks created under this tree so far
}

func key(block, view string) meta.Key { return meta.Key{Block: block, View: view, Version: 1} }

// genForest draws the forest's shape from rng.
func genForest(spec forestSpec, rng *rand.Rand) []*tree {
	trees := make([]*tree, spec.Trees)
	for t := range trees {
		tr := &tree{id: t, m: newModel()}
		for i := 0; i < spec.Nodes; i++ {
			parent := -1
			if i > 0 {
				w := min(i, spec.Window)
				parent = i - 1 - rng.Intn(w)
			}
			b := fmt.Sprintf("t%03dn%03d", t, i)
			nd := hnode{parent: parent, h: key(b, "HDL_model"), s: key(b, "schematic"),
				n: key(b, "netlist"), l: key(b, "layout")}
			tr.nodes = append(tr.nodes, nd)
			tr.m.addOID(nd.h)
			tr.m.addOID(nd.s)
			tr.m.addOID(nd.n)
			tr.m.addOID(nd.l)
			tr.m.addEdge(nd.h, nd.s, false)
			tr.m.addEdge(nd.s, nd.n, false)
			tr.m.addEdge(nd.s, nd.l, false)
			if parent >= 0 {
				tr.m.addEdge(tr.nodes[parent].s, nd.s, true)
			}
		}
		trees[t] = tr
	}
	return trees
}

// buildForest creates every OID and link of the forest through the
// engine — the same template and journal path a wrapper's CREATE and
// LINK take — and drains the creation events.
func buildForest(eng *engine.Engine, trees []*tree) error {
	for _, tr := range trees {
		for _, nd := range tr.nodes {
			for _, k := range []meta.Key{nd.h, nd.s, nd.n, nd.l} {
				got, err := eng.CreateOID(k.Block, k.View, "setup")
				if err != nil {
					return fmt.Errorf("create %v: %w", k, err)
				}
				if got != k {
					return fmt.Errorf("create %v: got %v", k, got)
				}
			}
			links := [][2]meta.Key{{nd.h, nd.s}, {nd.s, nd.n}, {nd.s, nd.l}}
			for _, l := range links {
				if _, err := eng.CreateLink(meta.DeriveLink, l[0], l[1]); err != nil {
					return fmt.Errorf("derive link %v→%v: %w", l[0], l[1], err)
				}
			}
			if nd.parent >= 0 {
				if _, err := eng.CreateLink(meta.UseLink, tr.nodes[nd.parent].s, nd.s); err != nil {
					return fmt.Errorf("use link →%v: %w", nd.s, err)
				}
			}
		}
	}
	return eng.Drain()
}

// ckinTarget draws the target of a check-in: the schematic or the
// HDL_model of a random node.
func (tr *tree) ckinTarget(rng *rand.Rand) meta.Key {
	nd := tr.nodes[rng.Intn(len(tr.nodes))]
	if rng.Intn(2) == 0 {
		return nd.h
	}
	return nd.s
}

// users are the designers check-ins are attributed to; the user ends up
// in lvs_result, so the checks see who checked in last.
var users = []string{"ann", "bob", "cho", "dev"}

// ckin is one check-in the benchmark posted, kept for the model.
type ckin struct {
	tr     *tree
	target meta.Key
	user   string
}

// model is the benchmark's own account of one tree's expected state: the
// link graph (setup links plus acked churn links), every OID's uptodate,
// and each layout's lvs_result.
type model struct {
	out  map[meta.Key][]edge
	up   map[meta.Key]bool
	lvs  map[meta.Key]string // layout → lvs_result
	keys []meta.Key          // every OID of the tree, setup then churn order
}

type edge struct {
	to  meta.Key
	use bool
}

func newModel() *model {
	return &model{out: map[meta.Key][]edge{}, up: map[meta.Key]bool{}, lvs: map[meta.Key]string{}}
}

func (m *model) addOID(k meta.Key) {
	m.up[k] = true
	if k.View == "layout" {
		m.lvs[k] = "not_equiv"
	}
	m.keys = append(m.keys, k)
}

func (m *model) addEdge(from, to meta.Key, use bool) {
	m.out[from] = append(m.out[from], edge{to: to, use: use})
}

// applyBatch is the model rule for check-ins drained together.  "ckin X"
// sets X up to date at once but invalidates through a posted outofdate
// event, which joins the queue behind everything already queued; so in
// one drained batch every check-in lands before any invalidation, and a
// node checked in after its ancestor in the same batch still ends out of
// date.  A batch of one is the per-event rule.
func applyBatch(evs []ckin) {
	for _, ev := range evs {
		m := ev.tr.m
		m.up[ev.target] = true
		if ev.target.View == "schematic" {
			l := key(ev.target.Block, "layout")
			if _, ok := m.lvs[l]; ok {
				m.lvs[l] = ev.target.String() + " changed by " + ev.user
			}
		}
	}
	for _, ev := range evs {
		for _, k := range ev.tr.m.deps(ev.target) {
			ev.tr.m.up[k] = false
		}
	}
}

// bfs walks the model graph from root, breadth first; useOnly restricts
// it to use links.  The result excludes root.
func (m *model) bfs(root meta.Key, useOnly bool) []meta.Key {
	seen := map[meta.Key]bool{root: true}
	queue := []meta.Key{root}
	var out []meta.Key
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, e := range m.out[k] {
			if (useOnly && !e.use) || seen[e.to] {
				continue
			}
			seen[e.to] = true
			out = append(out, e.to)
			queue = append(queue, e.to)
		}
	}
	return out
}

// deps is the downstream closure of root along every link, root excluded
// — what QUERY deps answers and what a check-in of root invalidates.
func (m *model) deps(root meta.Key) []meta.Key { return m.bfs(root, false) }

// reach is the use-link closure of root, root included — what QUERY
// reach answers.
func (m *model) reach(root meta.Key) []meta.Key {
	return append([]meta.Key{root}, m.bfs(root, true)...)
}

// checks collects output-check failures; it keeps the first few
// messages and counts the rest.
type checks struct {
	n    int
	msgs []string
}

func (c *checks) failf(format string, args ...any) {
	c.n++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o *checks) {
	c.n += o.n
	for _, m := range o.msgs {
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, m)
		}
	}
}

func (c *checks) String() string {
	return fmt.Sprintf("%d check failures: %s", c.n, strings.Join(c.msgs, "; "))
}

// verifyOID compares one OID's observed properties with the model.
func (m *model) verifyOID(c *checks, k meta.Key, props map[string]string) {
	want := "false"
	if m.up[k] {
		want = "true"
	}
	if got := props["uptodate"]; got != want {
		c.failf("%v: uptodate=%q, model says %s", k, got, want)
	}
	if lv, ok := m.lvs[k]; ok && props["lvs_result"] != lv {
		c.failf("%v: lvs_result=%q, model says %q", k, props["lvs_result"], lv)
	}
}
