package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/fed"
	"bioopera/internal/ocr"
	"bioopera/internal/remote"
	"bioopera/internal/store"
)

// fig3Src has the shape of the paper's Fig. 3 all-vs-all: a
// preprocessing step, a 16-wide parallel block, and a merge of the block
// results — 18 activities per instance. The programs are trivial, so the
// engine, not the program, is what gets measured.
const fig3Src = `
PROCESS Fig3 {
  INPUT xs;
  OUTPUT total;
  ACTIVITY Pre { CALL fig3.pre(xs = xs); OUT parts; MAP parts -> parts; }
  BLOCK Fan PARALLEL OVER parts AS part {
    MAP results -> results;
    OUTPUT r;
    ACTIVITY Work { CALL fig3.work(x = part); OUT r; MAP r -> r; }
  }
  ACTIVITY Merge { CALL fig3.merge(rs = results); OUT total; MAP total -> total; }
  Pre -> Fan;
  Fan -> Merge;
}`

const (
	fig3Width    = 16
	localWorkers = 8
	waitTimeout  = time.Minute
)

// fig3Library registers the Fig. 3 programs: Pre passes its list on, each
// Work returns x+1, Merge sums the block results.
func fig3Library(tr *tracer) *core.Library {
	lib := core.NewLibrary()
	for _, p := range []core.Program{
		program(tr, "fig3.pre", func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"parts": args["xs"]}, nil
		}),
		program(tr, "fig3.work", func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			return map[string]ocr.Value{"r": ocr.Int(args["x"].AsInt() + 1)}, nil
		}),
		program(tr, "fig3.merge", func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
			rs := args["rs"]
			total := 0
			for i := 0; i < rs.Len(); i++ {
				total += rs.At(i).AsInt()
			}
			return map[string]ocr.Value{"total": ocr.Int(total)}, nil
		}),
	} {
		if err := lib.Register(p); err != nil {
			panic(err) // the names and functions above are constant
		}
	}
	return lib
}

// fig3Inputs draws one instance's 16 inputs and the Merge total they
// must produce: Σ(x+1).
func fig3Inputs(rng *rand.Rand) (ocr.Value, int) {
	xs := make([]ocr.Value, fig3Width)
	want := 0
	for i := range xs {
		x := rng.Intn(1000)
		xs[i] = ocr.Int(x)
		want += x + 1
	}
	return ocr.List(xs...), want
}

// fedChainSrc is the 3-step chain of the repository's federated
// throughput benchmark; each step computes 2x+1, so r = 8x+7.
const fedChainSrc = `
PROCESS FedChain {
  INPUT x;
  OUTPUT r;
  ACTIVITY A { CALL fedbench.step(x = x); OUT out; MAP out -> a; }
  ACTIVITY B { CALL fedbench.step(x = a); OUT out; MAP out -> b; }
  ACTIVITY C { CALL fedbench.step(x = b); OUT out; MAP out -> r; }
  A -> B;
  B -> C;
}`

const fedChainActivities = 3

func fedLibrary(tr *tracer) *core.Library {
	lib := core.NewLibrary()
	if err := lib.Register(program(tr, "fedbench.step", func(_ core.ProgramCtx, args map[string]ocr.Value) (map[string]ocr.Value, error) {
		return map[string]ocr.Value{"out": ocr.Num(args["x"].AsNum()*2 + 1)}, nil
	})); err != nil {
		panic(err)
	}
	return lib
}

// deployment is one booted system under a running workload.
type deployment struct {
	// runOne submits one instance drawn from rng, waits for its result
	// and checks it. It returns the activities the instance ran and
	// whether its outputs were right; err reports a failed call.
	runOne func(rng *rand.Rand) (activities int, ok bool, err error)
	// disk and dir are the primary disk store and its directory (nil and
	// "" for in-memory stores).
	disk *store.Disk
	dir  string
	// standby follows the primary's WAL (remote-ship only).
	standby *store.Standby
	close   func() error
}

// runFig3 is runOne for a runtime embedding core.RuntimeBase.
func runFig3(rt *core.RuntimeBase, tr *tracer) func(*rand.Rand) (int, bool, error) {
	return func(rng *rand.Rand) (int, bool, error) {
		xs, want := fig3Inputs(rng)
		t0 := tr.now()
		id, err := rt.StartProcess("Fig3", map[string]ocr.Value{"xs": xs}, core.StartOptions{})
		tr.add("core.start", id, t0)
		if err != nil {
			return 0, false, err
		}
		tw := tr.now()
		in, err := rt.Wait(id, waitTimeout)
		tr.add("core.wait", id, tw)
		tr.add("instance", id, t0)
		if err != nil {
			return 0, false, err
		}
		ok := in.Status == core.InstanceDone && in.Outputs["total"].AsInt() == want
		return in.Activities, ok, nil
	}
}

// newLocalDurable boots the local runtime (8 slots) over a disk store
// with fsync on.
func newLocalDurable(dir string, tr *tracer) (*deployment, error) {
	t0 := tr.now()
	d, err := store.OpenDisk(dir, store.DiskOptions{})
	tr.add("store.open", "", t0)
	if err != nil {
		return nil, err
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
	if err := rt.RegisterTemplateSource(fig3Src); err != nil {
		rt.Close()
		return nil, errors.Join(err, d.Close())
	}
	return &deployment{
		runOne: runFig3(&rt.RuntimeBase, tr),
		disk:   d,
		dir:    dir,
		close: func() error {
			rt.Close()
			return d.Close()
		},
	}, nil
}

// newFedGateway boots two shared-nothing members, each over its own
// in-memory store, with 8 partitions, and a library gateway over them.
// It returns once every partition has exactly one owner.
func newFedGateway(tr *tracer) (*deployment, error) {
	const members, partitions = 2, 8
	var ms []*fed.Member
	var addrs []string
	closeAll := func() {
		for _, m := range ms {
			m.Close()
		}
	}
	for i := 0; i < members; i++ {
		m, err := fed.NewMember(fed.Config{
			Name:             fmt.Sprintf("m%d", i+1),
			ListenAddr:       "127.0.0.1:0",
			Join:             append([]string(nil), addrs...),
			Store:            wrapStore(store.NewMem(), tr),
			Library:          fedLibrary(tr),
			Workers:          4,
			Partitions:       partitions,
			HeartbeatEvery:   50 * time.Millisecond,
			HeartbeatTimeout: time.Second,
			OnEvent:          onEvent(tr),
		})
		if err != nil {
			closeAll()
			return nil, err
		}
		ms = append(ms, m)
		if err := m.Runtime().RegisterTemplateSource(fedChainSrc); err != nil {
			closeAll()
			return nil, err
		}
		addrs = append(addrs, m.Addr())
	}
	if err := awaitOwnership(ms, partitions); err != nil {
		closeAll()
		return nil, err
	}
	g, err := fed.NewGateway(fed.GatewayConfig{Members: addrs, Retries: 60, RetryBackoff: 50 * time.Millisecond})
	if err != nil {
		closeAll()
		return nil, err
	}
	return &deployment{
		runOne: func(rng *rand.Rand) (int, bool, error) {
			x := rng.Intn(1_000_000)
			t0 := tr.now()
			id, err := g.Start(fed.StartReq{Template: "FedChain", Inputs: map[string]ocr.Value{"x": ocr.Int(x)}})
			tr.add("fed.start", id, t0)
			if err != nil {
				return 0, false, err
			}
			tw := tr.now()
			res, err := g.Wait(id, waitTimeout)
			tr.add("fed.wait", id, tw)
			tr.add("instance", id, t0)
			if err != nil {
				return 0, false, err
			}
			ok := res.Status == core.InstanceDone.String() && res.Outputs["r"].AsNum() == float64(8*x+7)
			return fedChainActivities, ok, nil
		},
		close: func() error {
			g.Close()
			closeAll()
			return nil
		},
	}, nil
}

// awaitOwnership blocks until every partition has exactly one owner and
// every member owns at least one.
func awaitOwnership(ms []*fed.Member, partitions int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		owners := make(map[int]int)
		settled := true
		for _, m := range ms {
			owned := m.OwnedPartitions()
			if len(owned) == 0 {
				settled = false
			}
			for _, p := range owned {
				owners[p]++
			}
		}
		settled = settled && len(owners) == partitions
		for _, c := range owners {
			settled = settled && c == 1
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("federation ownership did not settle")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// newRemoteShip boots the remote runtime over a disk store with fsync
// off, one 8-CPU worker agent over loopback, and a hot standby following
// the primary's WAL stream. Shipping starts through Disk.StartShipping —
// the call remote.Config.ShipAddr makes — because ShipAddr needs the
// bare *store.Disk, which the traced pass wraps.
func newRemoteShip(dir string, tr *tracer) (_ *deployment, err error) {
	// closers undo each step in reverse; a failed boot runs them too.
	var closers []func() error
	teardown := func() error {
		var errs []error
		for i := len(closers) - 1; i >= 0; i-- {
			errs = append(errs, closers[i]())
		}
		return errors.Join(errs...)
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, teardown())
		}
	}()

	t0 := tr.now()
	d, err := store.OpenDisk(filepath.Join(dir, "primary"), store.DiskOptions{NoSync: true})
	tr.add("store.open", "", t0)
	if err != nil {
		return nil, err
	}
	closers = append(closers, d.Close)
	sb, err := store.OpenStandby(filepath.Join(dir, "standby"), store.DiskOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	closers = append(closers, sb.Close)
	lib := fig3Library(tr)
	rt, err := remote.NewRuntime(remote.Config{
		Addr:    "127.0.0.1:0",
		Store:   wrapStore(d, tr),
		Library: lib,
		Policy:  policy(tr),
		OnEvent: onEvent(tr),
	})
	if err != nil {
		return nil, err
	}
	closers = append(closers, rt.Close)
	shipper, err := d.StartShipping("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	var follow sync.WaitGroup
	follow.Add(1)
	go func() {
		defer follow.Done()
		//bioopera:allow droppederr Follow ends with an error once the shipper closes at teardown; the standby digest check verifies the stream
		sb.Follow(shipper.Addr(), nil)
	}()
	closers = append(closers, func() error {
		err := shipper.Close()
		follow.Wait()
		return err
	})
	agent, err := remote.Dial(rt.Addr(), remote.AgentConfig{Name: "agent", CPUs: localWorkers, Library: lib})
	if err != nil {
		return nil, err
	}
	closers = append(closers, agent.Close)
	if err := rt.RegisterTemplateSource(fig3Src); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for len(rt.Server.Nodes()) < localWorkers {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("worker agent did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return &deployment{
		runOne:  runFig3(&rt.RuntimeBase, tr),
		disk:    d,
		dir:     filepath.Join(dir, "primary"),
		standby: sb,
		close:   teardown,
	}, nil
}

// awaitStandby waits until the standby's digest equals the primary's and
// returns how long that took.
func awaitStandby(primary *store.Disk, sb *store.Standby) (time.Duration, error) {
	start := time.Now()
	want, err := primary.Digest()
	if err != nil {
		return 0, err
	}
	deadline := start.Add(30 * time.Second)
	for {
		got, err := sb.Store().Digest()
		if err != nil {
			return 0, err
		}
		if got == want {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("standby digest never matched the primary's")
		}
		time.Sleep(time.Millisecond)
	}
}
