package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/ocr"
	"bioopera/internal/store"
)

const (
	fixtureInstances = 10000
	fixtureRunning   = fixtureInstances / 100 // 1% running, 99% suspended
)

// call is one recorded mutating store call.
type call struct {
	kind  string // "put", "batch", "delete" or "event"
	space store.Space
	key   string
	value []byte
	ops   []store.Op
}

// recorder is a store wrapper that records every mutating call, copying
// the bytes (the engine reuses its encode buffers).
type recorder struct {
	store.Store
	mu    sync.Mutex
	calls []call
}

func (r *recorder) rec(c call) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

func (r *recorder) Put(space store.Space, key string, value []byte) error {
	r.rec(call{kind: "put", space: space, key: key, value: bytes.Clone(value)})
	return r.Store.Put(space, key, value)
}

func (r *recorder) Batch(ops []store.Op) error {
	cp := make([]store.Op, len(ops))
	for i, op := range ops {
		cp[i] = store.Op{Space: op.Space, Key: op.Key, Value: bytes.Clone(op.Value), Delete: op.Delete}
	}
	r.rec(call{kind: "batch", ops: cp})
	return r.Store.Batch(ops)
}

func (r *recorder) Delete(space store.Space, key string) error {
	r.rec(call{kind: "delete", space: space, key: key})
	return r.Store.Delete(space, key)
}

func (r *recorder) AppendEvent(data []byte) (uint64, error) {
	r.rec(call{kind: "event", value: bytes.Clone(data)})
	return r.Store.AppendEvent(data)
}

// mentions reports whether the call's keys or bytes contain id.
func (c call) mentions(id string) bool {
	b := []byte(id)
	if strings.Contains(c.key, id) || bytes.Contains(c.value, b) {
		return true
	}
	for _, op := range c.ops {
		if strings.Contains(op.Key, id) || bytes.Contains(op.Value, b) {
			return true
		}
	}
	return false
}

// replace returns the call with every occurrence of old replaced by new.
func (c call) replace(old, new string) call {
	o, n := []byte(old), []byte(new)
	out := call{kind: c.kind, space: c.space, key: strings.ReplaceAll(c.key, old, new)}
	if c.value != nil {
		out.value = bytes.ReplaceAll(c.value, o, n)
	}
	for _, op := range c.ops {
		out.ops = append(out.ops, store.Op{Space: op.Space, Key: strings.ReplaceAll(op.Key, old, new),
			Value: bytes.ReplaceAll(op.Value, o, n), Delete: op.Delete})
	}
	return out
}

func (c call) apply(st store.Store) error {
	switch c.kind {
	case "put":
		return st.Put(c.space, c.key, c.value)
	case "batch":
		return st.Batch(c.ops)
	case "delete":
		return st.Delete(c.space, c.key)
	case "event":
		_, err := st.AppendEvent(c.value)
		return err
	}
	return fmt.Errorf("unknown call kind %q", c.kind)
}

// fixture is the restart workload's pristine store: 10,000 Fig. 3
// instances, 1% running and 99% suspended, with their history journal.
type fixture struct {
	dir     string
	running []string // IDs of the running instances
	want    int      // Merge total every running instance must produce
	buildS  float64
}

// buildFixture records the store calls of one real suspended and one real
// running instance, then replays them under substituted IDs into a disk
// store: the first half of the instances goes under a snapshot, the
// second half stays in the WAL tail. Because it replays calls rather than
// writing records itself, the fixture follows any change to the engine's
// record or journal format with no benchmark edit.
func buildFixture(cfg config) (*fixture, error) {
	start := time.Now()
	rec := &recorder{Store: store.NewMem()}
	rt, err := core.NewSimRuntime(core.SimConfig{Seed: cfg.seed, Spec: cluster.IkLinux(), Store: rec, Library: fig3Library(nil)})
	if err != nil {
		return nil, err
	}
	if err := rt.Engine.RegisterTemplateSource(fig3Src); err != nil {
		return nil, err
	}
	xs, want := fig3Inputs(rand.New(rand.NewSource(cfg.seed)))
	suspID, err := rt.Engine.StartProcess("Fig3", map[string]ocr.Value{"xs": xs}, core.StartOptions{})
	if err != nil {
		return nil, err
	}
	runID, err := rt.Engine.StartProcess("Fig3", map[string]ocr.Value{"xs": xs}, core.StartOptions{})
	if err != nil {
		return nil, err
	}
	if err := rt.Engine.Suspend(suspID, false); err != nil {
		return nil, err
	}
	rt.Engine.QuiesceCheckpoints()
	if len(suspID) != len(runID) {
		return nil, fmt.Errorf("seed IDs %q and %q differ in length", suspID, runID)
	}

	var shared, susp, run []call
	for _, c := range rec.calls {
		ms, mr := c.mentions(suspID), c.mentions(runID)
		switch {
		case ms && mr:
			return nil, fmt.Errorf("a recorded store call serves both seed instances")
		case ms:
			susp = append(susp, c)
		case mr:
			run = append(run, c)
		default:
			shared = append(shared, c)
		}
	}
	if len(susp) == 0 || len(run) == 0 {
		return nil, fmt.Errorf("recorded %d suspended and %d running calls", len(susp), len(run))
	}

	fx := &fixture{dir: filepath.Join(cfg.work, "fixture"), want: want}
	d, err := store.OpenDisk(fx.dir, store.DiskOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	fx.running, err = fillFixture(d, shared, clone{susp, suspID}, clone{run, runID})
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fx.buildS = time.Since(start).Seconds()
	return fx, nil
}

// clone is one seed instance's recorded calls and ID.
type clone struct {
	calls []call
	id    string
}

// fillFixture replays the shared calls once, then the running seed's
// calls for the first 1% of the instances and the suspended seed's for
// the rest, each under its own ID, snapshotting after the first half. It
// returns the running instances' IDs.
func fillFixture(d *store.Disk, shared []call, susp, run clone) ([]string, error) {
	for _, c := range shared {
		if err := c.apply(d); err != nil {
			return nil, err
		}
	}
	var running []string
	for i := 0; i < fixtureInstances; i++ {
		seed := susp
		if i < fixtureRunning {
			seed = run
		}
		// Binary records length-prefix their strings, so only a
		// same-length substitution leaves their framing intact.
		suffix := strconv.FormatInt(int64(i), 36)
		if len(suffix) >= len(seed.id) {
			return nil, fmt.Errorf("seed ID %q too short for %d clones", seed.id, fixtureInstances)
		}
		id := seed.id[:len(seed.id)-len(suffix)] + suffix
		if i < fixtureRunning {
			running = append(running, id)
		}
		for _, c := range seed.calls {
			if err := c.replace(seed.id, id).apply(d); err != nil {
				return nil, err
			}
		}
		if i == fixtureInstances/2-1 {
			if err := d.Snapshot(); err != nil {
				return nil, err
			}
		}
	}
	return running, nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			return errors.Join(err, out.Close())
		}
		return out.Close()
	})
}

// restartRep is one measured restart. Its pass runs from the restart's
// start to the last running instance's checked result; the latencies run
// from the restart's start too.
type restartRep struct {
	setups                      []float64 // fixture copies: the work before the restart
	restartS, snapshotS, drainS float64
	pass
}

// restartOnce restores a pristine copy of the fixture and times the
// server coming back: OpenDisk and Engine.Recover (eager), then a
// snapshot of the recovered store, then the running instances draining
// to Done on an 8-slot local pool.
func restartOnce(cfg config, fx *fixture, rep int, tr *tracer, in *layerInput) (_ *restartRep, err error) {
	r := &restartRep{}
	dir := filepath.Join(cfg.work, fmt.Sprintf("rep%d", rep))
	for i := 0; i < setupReps; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := copyTree(fx.dir, dir); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
	}
	defer os.RemoveAll(dir)

	cpu0 := cpuTime()
	start := time.Now()
	s0 := tr.now()
	d, err := store.OpenDisk(dir, store.DiskOptions{})
	tr.add("store.open", "", s0)
	if err != nil {
		return nil, err
	}
	if in != nil {
		st := diskStats(d, tr)
		in.replayRecords = float64(st.WALNextSeq - st.SnapshotSeq)
	}
	rt, err := core.NewLocalRuntime(core.LocalConfig{
		Workers: localWorkers,
		Store:   wrapStore(d, tr),
		Library: fig3Library(tr),
		Policy:  policy(tr),
		OnEvent: onEvent(tr),
	})
	if err != nil {
		return nil, errors.Join(err, d.Close())
	}
	defer func() {
		rt.Close()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}()
	if err := rt.RegisterTemplateSource(fig3Src); err != nil {
		return nil, err
	}
	// Dispatch stays paused until the recovered store is snapshotted, so
	// restart, snapshot and drain are timed apart instead of racing.
	rt.Engine().PauseAll()
	s1 := tr.now()
	n, err := rt.Engine().Recover()
	tr.add("core.recover", "", s1)
	tr.add("core.restart", "", s0)
	r.restartS = time.Since(start).Seconds()
	r.attempted++
	if err != nil || n != fixtureInstances {
		r.fail(fmt.Sprintf("recovered %d of %d instances (%v)", n, fixtureInstances, err))
	}
	s2 := tr.now()
	t2 := time.Now()
	err = d.Snapshot()
	tr.add("store.snapshot", "", s2)
	r.snapshotS = time.Since(t2).Seconds()
	if err != nil {
		return nil, err
	}
	if in != nil {
		in.snapshotBytes = float64(snapshotBytes(dir))
	}

	// One waiter per in-flight instance, as its user would be.
	s3 := tr.now()
	t3 := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range fx.running {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			tw := tr.now()
			inst, err := rt.Wait(id, waitTimeout)
			lat := time.Since(start)
			tr.add("core.wait", id, tw)
			tr.add("instance", id, s0)
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			r.latMs = append(r.latMs, float64(lat)/1e6)
			if err != nil || inst.Status != core.InstanceDone || inst.Outputs["total"].AsInt() != fx.want {
				r.fail(fmt.Sprintf("instance %s: wrong output (%v)", id, err))
				return
			}
			r.activities += int64(inst.Activities)
		}(id)
	}
	var walBytes0 int64
	var st0 store.Stats
	if in != nil {
		st0 = diskStats(d, tr)
		walBytes0 = dirBytes(filepath.Join(dir, "wal"))
	}
	rt.Engine().ResumeAll()
	wg.Wait()
	tr.add("core.drain", "", s3)
	r.drainS = time.Since(t3).Seconds()
	r.seconds = time.Since(start).Seconds()
	r.cpu = cpuTime() - cpu0
	if in != nil {
		in.addDiskDelta(st0, diskStats(d, tr))
		in.walBytes += float64(dirBytes(filepath.Join(dir, "wal")) - walBytes0)
	}
	return r, nil
}

// snapshotBytes sums the sizes of the snapshot files (*.snap) in a store
// directory.
func snapshotBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && strings.HasSuffix(e.Name(), ".snap") {
			n += info.Size()
		}
	}
	return n
}

// restartPass repeats restartOnce for about d: it starts another restart
// only while the mean restart so far still fits, and always makes one.
func restartPass(cfg config, fx *fixture, d time.Duration, tr *tracer, in *layerInput) (*pass, []float64, []*restartRep, error) {
	p := &pass{}
	var setups []float64
	var reps []*restartRep
	start := time.Now()
	for len(reps) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(reps)) <= d {
		r, err := restartOnce(cfg, fx, len(reps), tr, in)
		if err != nil {
			return nil, nil, nil, err
		}
		reps = append(reps, r)
		setups = append(setups, r.setups...)
		p.add(&r.pass)
	}
	return p, setups, reps, nil
}

func runRestart(cfg config) (*outcome, error) {
	fx, err := buildFixture(cfg)
	if err != nil {
		return nil, fmt.Errorf("restart fixture: %w", err)
	}
	meta := map[string]any{"fixture_build_s": fx.buildS}
	if !cfg.trace {
		p, setups, reps, err := restartPass(cfg, fx, cfg.seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		for k, v := range passMeta(p) {
			meta[k] = v
		}
		var rs, ss, ds []float64
		for _, r := range reps {
			rs = append(rs, r.restartS)
			ss = append(ss, r.snapshotS)
			ds = append(ds, r.drainS)
		}
		meta["restarts"] = len(reps)
		meta["restart_s"] = median(rs)
		meta["snapshot_s"] = median(ss)
		meta["drain_s"] = median(ds)
		return &outcome{
			result: result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(setups, p, fixtureInstances)},
			meta:   meta,
		}, nil
	}
	base, _, _, err := restartPass(cfg, fx, cfg.seconds, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	in := layerInput{tr: tr, untracedRate: base.rate()}
	in.fsyncUs = fsyncProbe(cfg.work)
	runtime.ReadMemStats(&in.mem0)
	p, _, reps, err := restartPass(cfg, fx, cfg.seconds, tr, &in)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&in.mem1)
	in.fsyncUs = append(in.fsyncUs, fsyncProbe(cfg.work)...)
	in.activities = float64(p.activities)
	in.tracedRate = p.rate()
	for k, v := range passMeta(p) {
		meta[k] = v
	}
	meta["restarts"] = len(reps)
	return tracedOutcome(cfg, in, base.attempted+p.attempted, base.failed+p.failed, meta)
}
