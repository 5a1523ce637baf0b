package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/meta"
	"repro/internal/replica"
	"repro/internal/server"
)

// stackOpts selects the layers of one stack.  Each option adds one layer
// on top of the previous ones; the traced run walks them in that order.
type stackOpts struct {
	mvcc     bool // meta: EnableMVCC on a plain DB (a journal implies it)
	journal  bool // journal: the DB lives in a journal directory
	fsync    bool // journal: fsync every commit
	server   bool // server: a Server over the engine (Handle, no socket)
	listen   bool // server: listening on 127.0.0.1:0
	follower bool // replica: an in-process follower, quorum ack 1
}

// stack is one running configuration: engine over a DB, optionally
// journaled, served and replicated, holding the forest.
type stack struct {
	dir  string
	db   *meta.DB
	eng  *engine.Engine
	jw   *journal.Writer
	srv  *server.Server
	addr string
	fol  *replica.Follower

	pfs, ffs *countFS // primary and follower journal I/O counters

	once     sync.Once
	closeErr error
}

// quorumTimeout bounds a write's wait for the follower ack; a run never
// comes near it.
const quorumTimeout = 10 * time.Second

// newStack stands the stack up under rc.tmp and builds trees into it.
// The stack is registered for cleanup, so every exit path closes it.
func newStack(rc *runCtx, o stackOpts, trees []*tree) (*stack, error) {
	dir, err := os.MkdirTemp(rc.tmp, "stack-*")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, pfs: newCountFS(), ffs: newCountFS()}
	rc.cl.add(func() { _ = s.close() })
	if err := s.start(rc, o, trees); err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// noSnapshots keeps a journal from snapshotting in the background.  A
// background snapshot can lose a race with MVCC version reclaim and
// degrade the primary now and then (journal.Writer.Snapshot pins
// ReadViewAt(lastLSN) after reading lastLSN outside the MVCC gate; a
// reclaim pass in between moves the horizon past it).  Close still
// snapshots, so recovery and catch-up start from one.
const noSnapshots = -1

func (s *stack) start(rc *runCtx, o stackOpts, trees []*tree) error {
	var engOpts []engine.Option
	if o.journal {
		jw, db, err := journal.Open(filepath.Join(s.dir, "primary"),
			journal.Options{Fsync: o.fsync, FS: s.pfs, SnapshotEvery: noSnapshots})
		if err != nil {
			return err
		}
		s.jw, s.db = jw, db
		engOpts = append(engOpts, engine.WithJournal(jw))
	} else {
		s.db = meta.NewDB()
		if o.mvcc {
			s.db.EnableMVCC()
		}
	}
	eng, err := engine.New(s.db, rc.bp, engOpts...)
	if err != nil {
		return err
	}
	s.eng = eng
	if err := buildForest(eng, trees); err != nil {
		return fmt.Errorf("build forest: %w", err)
	}
	if !o.server {
		return nil
	}
	var srvOpts []server.Option
	if s.jw != nil {
		srvOpts = append(srvOpts, server.WithJournal(s.jw), server.WithFollowSource(replica.NewSource(s.jw)))
		if o.follower {
			srvOpts = append(srvOpts, server.WithQuorum(1, quorumTimeout))
		}
	}
	s.srv = server.New(eng, srvOpts...)
	if !o.listen {
		return nil
	}
	if s.addr, err = s.srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	if !o.follower {
		return nil
	}
	s.fol, err = replica.Start(filepath.Join(s.dir, "follower"), s.addr,
		journal.Options{Fsync: o.fsync, FS: s.ffs, SnapshotEvery: noSnapshots})
	if err != nil {
		return err
	}
	_, err = s.fol.WaitApplied(s.jw.LastLSN(), time.Minute)
	return err
}

// close stops the stack's server, follower and journal, in that order;
// it is idempotent.  The directory stays for recovery measurements; the
// run's temp root removes it.
func (s *stack) close() error {
	s.once.Do(func() {
		keep := func(err error) {
			if s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.srv != nil {
			keep(s.srv.Close())
		}
		if s.fol != nil {
			keep(s.fol.Close())
		}
		if s.jw != nil {
			keep(s.jw.Close())
		}
	})
	return s.closeErr
}

// destroy closes the stack, removes its directory and drops it.
func (s *stack) destroy() error {
	err := s.close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	s.drop()
	return err
}

// drop releases a closed stack's database and layers.  The undo list
// still refers to the stack, so without this every stack a run set up
// would stay live to the end: the garbage collector would mark all of
// them during the load, and max_rss_mb would count them.
func (s *stack) drop() {
	s.db, s.eng, s.jw, s.srv, s.fol = nil, nil, nil, nil, nil
}

// countFS is the production filesystem with write and fsync counters —
// the journal's own I/O seam, so bytes written to segments and snapshots
// are counted where they happen.
type countFS struct {
	faultfs.FS
	written atomic.Int64
	syncs   atomic.Int64
}

func newCountFS() *countFS { return &countFS{FS: faultfs.OS} }

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

func (c *countFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: c}, nil
}

type countFile struct {
	faultfs.File
	c *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.written.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

// opTimeout bounds the silence within one round trip; a healthy run
// never comes near it.
const opTimeout = 30 * time.Second

// dial opens a protocol client to addr, registered for cleanup.  The
// cleanup hangs up rather than sending QUIT, so an abort never waits on
// a wedged server.
func dial(rc *runCtx, addr string) (*server.Client, error) {
	c, err := server.DialTimeout(addr, 5*time.Second, opTimeout)
	if err != nil {
		return nil, err
	}
	rc.cl.add(func() { _ = c.Hangup() })
	return c, nil
}

// saveBytes is the canonical Save document of db.
func saveBytes(db *meta.DB) ([]byte, error) {
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// setupRuns is how many times a run stands its stack up; setup_s is the
// median, and the last stack carries the load.
const setupRuns = 9

// setupStack stands the stack up setupRuns times, keeps the last one and
// returns it with the median set-up time in seconds.  Set-up includes the
// journal, the forest build, the listener and the follower's catch-up.
// Each set-up starts on a collected heap, so none pays for the garbage
// of the one before it.
func setupStack(rc *runCtx, o stackOpts, trees []*tree) (*stack, float64, error) {
	var times samples
	var st *stack
	rc.stage("setup")
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			if err := st.destroy(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = newStack(rc, o, trees); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times.median(), nil
}
