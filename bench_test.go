// Benchmark harness: one benchmark per paper table/figure (regenerating the
// artifact end to end via the experiments registry) plus micro-benchmarks
// of the hot paths. Run everything with
//
//	go test -bench=. -benchmem
//
// Heavy experiment benches execute once per iteration; the default
// -benchtime keeps b.N at 1 for them.
package sendforget_test

import (
	"testing"

	"sendforget/internal/degreemc"
	"sendforget/internal/engine"
	"sendforget/internal/experiments"
	"sendforget/internal/globalmc"
	"sendforget/internal/loss"
	"sendforget/internal/markov"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/flipper"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/sfopt"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/runtime"
	"sendforget/internal/transport"
	"sendforget/internal/view"
)

// benchExperiment regenerates one registered experiment per iteration. The
// degree-MC memo is reset each time, so every iteration times the
// fixed-point solves rather than a lookup of the first iteration's result.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		degreemc.ResetSolveCache()
		if _, err := experiments.Run(id); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Paper artifacts (see DESIGN.md per-experiment index).

func BenchmarkFig61(b *testing.B)  { benchExperiment(b, "fig6.1") }
func BenchmarkFig62(b *testing.B)  { benchExperiment(b, "fig6.2") }
func BenchmarkTab63(b *testing.B)  { benchExperiment(b, "tab6.3") }
func BenchmarkFig63(b *testing.B)  { benchExperiment(b, "fig6.3") }
func BenchmarkFig64(b *testing.B)  { benchExperiment(b, "fig6.4") }
func BenchmarkCor614(b *testing.B) { benchExperiment(b, "cor6.14") }
func BenchmarkLem66(b *testing.B)  { benchExperiment(b, "lem6.6") }
func BenchmarkLem76(b *testing.B)  { benchExperiment(b, "lem7.6") }
func BenchmarkLem78(b *testing.B)  { benchExperiment(b, "lem7.8") }
func BenchmarkLem79(b *testing.B)  { benchExperiment(b, "lem7.9") }
func BenchmarkTab74(b *testing.B)  { benchExperiment(b, "tab7.4") }
func BenchmarkLem715(b *testing.B) { benchExperiment(b, "lem7.15") }

// Exact global-chain verification (Lemmas 7.1/7.2/7.5/7.6 at n=3).

func BenchmarkLem75(b *testing.B) { benchExperiment(b, "lem7.5") }

// Baseline comparison, churn extension, and ablations.

func BenchmarkBaselines(b *testing.B)          { benchExperiment(b, "base1") }
func BenchmarkRandomWalk(b *testing.B)         { benchExperiment(b, "rw1") }
func BenchmarkChurnWorkload(b *testing.B)      { benchExperiment(b, "churn1") }
func BenchmarkAblationBurstLoss(b *testing.B)  { benchExperiment(b, "abl1") }
func BenchmarkAblationDL(b *testing.B)         { benchExperiment(b, "abl2") }
func BenchmarkAblationOpt(b *testing.B)        { benchExperiment(b, "abl3") }
func BenchmarkAblationNonuniform(b *testing.B) { benchExperiment(b, "abl4") }

// Micro-benchmarks of the hot paths.

// BenchmarkEngineStep measures raw protocol-action throughput in the
// sequential simulator (one S&F action per op, including loss decisions).
func BenchmarkEngineStep(b *testing.B) {
	proto, err := sendforget.New(sendforget.Config{N: 1000, S: 40, DL: 18})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(proto, loss.MustUniform(0.01), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineStepTracked adds per-entry dependence tracking.
func BenchmarkEngineStepTracked(b *testing.B) {
	proto, err := sendforget.New(sendforget.Config{N: 1000, S: 40, DL: 18, TrackDependence: true})
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(proto, loss.MustUniform(0.01), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkInitiateStep measures the bare protocol initiate step.
func BenchmarkInitiateStep(b *testing.B) {
	lv := view.New(40)
	for i := 0; i < 28; i++ {
		lv.Set(i, peer.ID(i+1))
	}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send, _, ok := sendforget.InitiateStep(lv, 0, 18, r)
		if ok {
			// Put the ids back so the view's occupancy stays stationary.
			sendforget.ReceiveStep(lv, 40, send.IDs, r)
		}
	}
}

// BenchmarkDegreeMCSolveSmall solves a small degree MC to a fixed point.
// The cache is reset every iteration so the fixed-point computation itself
// is what gets timed.
func BenchmarkDegreeMCSolveSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		degreemc.ResetSolveCache()
		if _, err := degreemc.Solve(degreemc.Params{S: 16, DL: 6, Loss: 0.05}, degreemc.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegreeMCSolveFig63 solves fig6.3's middle degree MC (s=40,
// dL=18, loss 0.01) from a cold cache. CI gates its ns/op.
func BenchmarkDegreeMCSolveFig63(b *testing.B) {
	for i := 0; i < b.N; i++ {
		degreemc.ResetSolveCache()
		if _, err := degreemc.Solve(degreemc.Params{S: 40, DL: 18, Loss: 0.01}, degreemc.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegreeMCSolveCached measures a cache hit: the steady-state lookup
// path the experiment runners take when they re-request a solved chain.
func BenchmarkDegreeMCSolveCached(b *testing.B) {
	par := degreemc.Params{S: 16, DL: 6, Loss: 0.05}
	if _, err := degreemc.Solve(par, degreemc.SolveOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := degreemc.Solve(par, degreemc.SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStationary measures power iteration on a mid-size sparse chain
// (the adjacency-list representation the builders produce).
func BenchmarkStationary(b *testing.B) {
	sp, err := degreemc.NewSpace(degreemc.Params{S: 40, DL: 18, Loss: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := sp.BuildChain(degreemc.Field{PFull: 0.01, Gap: 25, PDup: 0.06})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := markov.Stationary(chain, nil, 1e-9, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStationaryCSR measures the same power iteration on the finalized
// CSR form.
func BenchmarkStationaryCSR(b *testing.B) {
	sp, err := degreemc.NewSpace(degreemc.Params{S: 40, DL: 18, Loss: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	chain, err := sp.BuildChain(degreemc.Field{PFull: 0.01, Gap: 25, PDup: 0.06})
	if err != nil {
		b.Fatal(err)
	}
	csr := chain.Finalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := markov.Stationary(csr, nil, 1e-9, 1000000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecRoundtrip measures wire marshal+unmarshal of an S&F
// message.
func BenchmarkCodecRoundtrip(b *testing.B) {
	msg := protocol.Message{Kind: protocol.KindGossip, From: 7, IDs: []peer.ID{7, 42}, Dup: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := transport.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := transport.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNGPair measures the uniform distinct-pair selection that every
// protocol action performs.
func BenchmarkRNGPair(b *testing.B) {
	r := rng.New(3)
	for i := 0; i < b.N; i++ {
		r.Pair(40)
	}
}

// sfCoreFactory builds S&F step cores for the runtime benchmarks.
func sfCoreFactory(s, dl int) protocol.CoreFactory {
	return func() (protocol.StepCore, error) { return sendforget.NewCore(s, dl) }
}

// benchProtocols lists the five batch-core protocols the sharded engine runs
// allocation-free, at view size 16 (matching the sendforget baseline rows).
func benchProtocols() []struct {
	name    string
	factory protocol.CoreFactory
} {
	return []struct {
		name    string
		factory protocol.CoreFactory
	}{
		{"sf", sfCoreFactory(16, 6)},
		{"sfopt", func() (protocol.StepCore, error) {
			return sfopt.NewCore(sfopt.Options{S: 16, DL: 6, ReplaceWhenFull: true, Undelete: true})
		}},
		{"shuffle", func() (protocol.StepCore, error) { return shuffle.NewCore(16) }},
		{"flipper", func() (protocol.StepCore, error) { return flipper.NewCore(16) }},
		{"pushpull", func() (protocol.StepCore, error) { return pushpull.NewCore(16) }},
	}
}

// BenchmarkRuntimeTick measures one concurrent-node gossip action over the
// in-memory lossy network (lock acquisition + step + transport). The
// per-node Tick is specific to the goroutine-per-node backend, so this is
// the one benchmark that needs the concrete type back from the factory.
func BenchmarkRuntimeTick(b *testing.B) {
	sub, err := runtime.New(runtime.Config{
		Engine: runtime.EngineCluster, N: 64, NewCore: sfCoreFactory(16, 6), Loss: 0.02, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	nodes := sub.(*runtime.Cluster).Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[i%len(nodes)].Tick()
	}
}

// BenchmarkClusterTick measures one full synchronous round (n initiate
// steps plus all triggered receive steps and loss decisions), reporting
// ns/node-tick so runs at different n compare directly. Every variant is
// built by runtime.New and driven through the Substrate interface — the
// backend appears only in the construction config:
//
//   - pernode: the goroutine-per-node path (per-node locks, handler
//     dispatch, per-message allocations) at its practical sizes.
//   - sharded: the sharded tick engine at 10k, 100k, and (full mode only;
//     skipped under -short) 1M nodes — the S&F baseline rows.
//   - sharded/<proto>: the same engine under each of the other batch-core
//     protocols at 10k and 100k, the per-protocol rows of
//     BENCH_cluster.json schema 2.
//
// scripts/bench.sh runs this family and records BENCH_cluster.json.
func BenchmarkClusterTick(b *testing.B) {
	tickRound := func(engine runtime.EngineKind, factory protocol.CoreFactory, n, warm int) func(*testing.B) {
		return func(b *testing.B) {
			sub, err := runtime.New(runtime.Config{
				Engine: engine, N: n, NewCore: factory, Loss: 0.02, Seed: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sub.Close()
			// Warm up the arenas so the timed region measures the
			// zero-allocation steady state, not one-time buffer growth.
			for i := 0; i < warm; i++ {
				sub.TickRound()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sub.TickRound()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-tick")
		}
	}
	pernode := func(n int) func(*testing.B) {
		return tickRound(runtime.EngineCluster, sfCoreFactory(16, 6), n, 0)
	}
	sharded := func(factory protocol.CoreFactory, n int) func(*testing.B) {
		// Arena capacity creeps up for hundreds of rounds at n>=100k (the
		// in-flight message high-water mark drifts under loss), so the
		// larger sizes need a longer warm-up before allocs/op reads 0.
		warm := 150
		if n > 10_000 {
			warm = 500
		}
		return tickRound(runtime.EngineSharded, factory, n, warm)
	}
	b.Run("pernode/n=500", pernode(500))
	b.Run("pernode/n=10k", pernode(10_000))
	b.Run("sharded/n=10k", sharded(sfCoreFactory(16, 6), 10_000))
	b.Run("sharded/n=100k", sharded(sfCoreFactory(16, 6), 100_000))
	b.Run("sharded/n=1M", func(b *testing.B) {
		if testing.Short() {
			b.Skip("1M-node round skipped under -short")
		}
		sharded(sfCoreFactory(16, 6), 1_000_000)(b)
	})
	for _, p := range benchProtocols() {
		b.Run("sharded/"+p.name+"/n=10k", sharded(p.factory, 10_000))
		b.Run("sharded/"+p.name+"/n=100k", sharded(p.factory, 100_000))
	}
}

// BenchmarkGlobalChainBuild measures exact state-space enumeration of the
// n=3 lossy global chain.
func BenchmarkGlobalChainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := globalmc.Build(globalmc.Params{N: 3, S: 6, DL: 2, Loss: 0.1}, globalmc.Circulant(3, 2)); err != nil {
			b.Fatal(err)
		}
	}
}
