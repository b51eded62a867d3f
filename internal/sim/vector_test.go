// Equivalence suite for the vectorized struct-of-arrays engine path
// (vector.go). The vec path deliberately consumes randomness differently from
// the legacy per-agent path — one derived stream per fixed-size chunk instead
// of one per agent — so the two are NOT bit-identical and each is pinned by
// its own golden file (golden_test.go). What this file proves instead:
//
//  1. the vec path is bit-identical to itself at any Workers / GOMAXPROCS
//     setting (per-chunk streams + commutative integer merges);
//  2. the vec and scalar paths agree *distributionally* — same protocols,
//     same observation law, indistinguishable outcome statistics;
//  3. vec snapshots resume bit-identically, including under live fault
//     schedules (noise swap/drift, and mid-crash with corruption/churn);
//  4. cross-path restores (vec snapshot into a scalar runner and vice versa)
//     fail loudly instead of silently diverging;
//  5. the eligibility predicate routes exactly the configurations the vec
//     kernels can honor, and nothing else.
package sim_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// vecCase is a configuration expected to take the vectorized path.
type vecCase struct {
	name string
	cfg  func(t *testing.T, seed uint64) sim.Config
}

func vecCases() []vecCase {
	return []vecCase{
		{
			// n > VecChunkSize so the run spans multiple chunks and worker
			// striding is non-trivial.
			name: "voter aggregate multichunk",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 10000, H: 6, Sources1: 30, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.15),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       40,
					StabilityWindow: 3,
				}
			},
		},
		{
			name: "majority exact",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 25, Sources0: 5,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 4,
					Corruption:      sim.CorruptWrongConsensus,
				}
			},
		},
		{
			name: "sf aggregate",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 300, H: 16, Sources1: 2, Sources0: 1,
					Noise:     uniformNoise(t, 2, 0.2),
					Protocol:  protocol.NewSF(),
					Seed:      seed,
					Backend:   sim.BackendAggregate,
					MaxRounds: 5000,
				}
			},
		},
		{
			// Noise swap + drift repoint the observation law mid-run; the
			// schedule must not knock the run off the vec path.
			name: "voter noise faults",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       50,
					StabilityWindow: 3,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindNoiseSwap, Round: 6, Matrix: mustUniform(0.3)},
						{Kind: faults.KindNoiseDrift, Round: 14, Delta: 0.12, DriftRounds: 8},
					}},
				}
			},
		},
		{
			// Graph topology: per-agent neighborhood laws over the CSR
			// adjacency, multi-chunk so the display vector is published by
			// several workers.
			name: "majority regular graph",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.RandomRegular(10000, 8, 424242)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 10000, H: 6, Sources1: 80, Sources0: 20,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 20,
				}
			},
		},
		{
			// k-ary alphabet on the complete graph: cached multinomial
			// observation batching, multi-chunk.
			name: "ssf k4 aggregate",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 5000, H: 8, Sources1: 60, Sources0: 15,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(protocol.WithSSFUpdateQuota(96)),
					Seed:            seed,
					Backend:         sim.BackendAggregate,
					MaxRounds:       200,
					StabilityWindow: 12,
					Corruption:      sim.CorruptRandom,
				}
			},
		},
		{
			// k-ary alphabet on a graph: neighborhood tallies feeding
			// per-agent multinomials.
			name: "trustbit regular graph",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				g, err := graph.RandomRegular(5000, 10, 171717)
				if err != nil {
					t.Fatal(err)
				}
				return sim.Config{
					N: 5000, H: 6, Sources1: 100, Sources0: 20,
					Noise:           uniformNoise(t, 4, 0.08),
					Protocol:        protocol.TrustBit{},
					Topology:        g,
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       40,
					StabilityWindow: 25,
				}
			},
		},
		{
			// The structural fault palette on the SoA population: mid-run
			// corruption, a crash window spanning the snapshot round of the
			// resume test (12 → 22, over round 16), and churn.
			name: "voter crash churn corrupt",
			cfg: func(t *testing.T, seed uint64) sim.Config {
				return sim.Config{
					N: 6000, H: 4, Sources1: 40, Sources0: 10,
					Noise:           uniformNoise(t, 2, 0.12),
					Protocol:        protocol.Voter{},
					Seed:            seed,
					Backend:         sim.BackendExact,
					MaxRounds:       60,
					StabilityWindow: 10,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindCorrupt, Round: 8, Fraction: 0.2, Corruption: faults.CorruptRandom},
						{Kind: faults.KindCrash, Round: 12, Fraction: 0.3, Duration: 10},
						{Kind: faults.KindChurn, Round: 14, Fraction: 0.15, Corruption: faults.CorruptWrongConsensus},
					}},
				}
			},
		},
	}
}

// TestVecBitIdenticalAcrossParallelism: the same seed must produce the same
// trajectory — byte-for-byte identical final engine state — at every Workers
// and GOMAXPROCS setting. This is the determinism contract of the per-chunk
// stream scheme: chunk c always draws from DeriveSeed(seed, vecStreamID+c)
// regardless of which worker executes it, and cross-chunk merges are
// commutative integer sums.
func TestVecBitIdenticalAcrossParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// The per-agent definition (ForceScalar) strides chunks across workers
	// too; only multi-chunk populations give it more than one.
	cases := vecCases()
	for _, tc := range vecCases() {
		if tc.cfg(t, 42).N >= 2*sim.VecChunkSize {
			cfg := tc.cfg
			cases = append(cases, vecCase{name: "scalar " + tc.name, cfg: func(t *testing.T, seed uint64) sim.Config {
				c := cfg(t, seed)
				c.ForceScalar = true
				return c
			}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var refRes *sim.Result
			var refSnap []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for _, workers := range []int{1, 2, 8} {
					cfg := tc.cfg(t, 42)
					cfg.Workers = workers
					r, err := sim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if r.Vectorized() == cfg.ForceScalar {
						t.Fatalf("GOMAXPROCS=%d workers=%d: Vectorized() = %v with ForceScalar = %v", procs, workers, r.Vectorized(), cfg.ForceScalar)
					}
					res, err := r.Run()
					if err != nil {
						t.Fatal(err)
					}
					snap, err := r.Snapshot()
					r.Close()
					if err != nil {
						t.Fatal(err)
					}
					if refSnap == nil {
						refRes, refSnap = res, snap
						continue
					}
					label := fmt.Sprintf("GOMAXPROCS=%d workers=%d", procs, workers)
					sameResult(t, refRes, res, label)
					if !bytes.Equal(refSnap, snap) {
						t.Fatalf("%s: final engine state differs from the single-threaded reference", label)
					}
				}
			}
		})
	}
}

// TestVecMatchesScalarDistribution: the vec and scalar paths implement the
// same stochastic process, so pooled outcome statistics over many independent
// seeds must agree within sampling error. Voter and majority compare the mean
// final-correct count; SF compares the correct-consensus win rate (its
// dynamics are near-deterministic per seed, so wins carry the signal).
func TestVecMatchesScalarDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical A/B needs many trials")
	}
	t.Run("voter mean final correct", func(t *testing.T) {
		const trials = 150
		base := func(seed uint64) sim.Config {
			return sim.Config{
				N: 500, H: 4, Sources1: 6, Sources0: 2,
				Noise:           uniformNoise(t, 2, 0.15),
				Protocol:        protocol.Voter{},
				Seed:            seed,
				Backend:         sim.BackendAggregate,
				MaxRounds:       60,
				StabilityWindow: 4,
				Workers:         1,
			}
		}
		vec := sampleFinalCorrect(t, base, false, trials, true)
		sca := sampleFinalCorrect(t, base, true, trials, false)
		z := welchZ(vec, sca)
		if math.Abs(z) > 4.5 {
			t.Fatalf("voter vec vs scalar mean final-correct diverges: z = %.2f (vec mean %.1f, scalar mean %.1f)",
				z, mean(vec), mean(sca))
		}
	})
	t.Run("majority graph mean final correct", func(t *testing.T) {
		const trials = 120
		g, err := graph.RandomRegular(500, 8, 99)
		if err != nil {
			t.Fatal(err)
		}
		base := func(seed uint64) sim.Config {
			return sim.Config{
				N: 500, H: 5, Sources1: 10, Sources0: 2,
				Noise:           uniformNoise(t, 2, 0.1),
				Protocol:        protocol.MajorityRule{},
				Topology:        g,
				Seed:            seed,
				Backend:         sim.BackendExact,
				MaxRounds:       30,
				StabilityWindow: 30,
				Workers:         1,
			}
		}
		vec := sampleFinalCorrect(t, base, false, trials, true)
		sca := sampleFinalCorrect(t, base, true, trials, false)
		z := welchZ(vec, sca)
		if math.Abs(z) > 4.5 {
			t.Fatalf("graph majority vec vs scalar mean final-correct diverges: z = %.2f (vec mean %.1f, scalar mean %.1f)",
				z, mean(vec), mean(sca))
		}
	})
	t.Run("sf win rate", func(t *testing.T) {
		const trials = 80
		base := func(seed uint64) sim.Config {
			return sim.Config{
				N: 150, H: 16, Sources1: 2, Sources0: 1,
				Noise:     uniformNoise(t, 2, 0.2),
				Protocol:  protocol.NewSF(),
				Seed:      seed,
				Backend:   sim.BackendAggregate,
				MaxRounds: 5000,
				Workers:   1,
			}
		}
		vecWins, scaWins := 0, 0
		for tr := 0; tr < trials; tr++ {
			seed := uint64(9000 + tr)
			cv := base(seed)
			rv, err := sim.New(cv)
			if err != nil {
				t.Fatal(err)
			}
			resV, err := rv.Run()
			rv.Close()
			if err != nil {
				t.Fatal(err)
			}
			cs := base(seed)
			cs.ForceScalar = true
			rs, err := sim.New(cs)
			if err != nil {
				t.Fatal(err)
			}
			resS, err := rs.Run()
			rs.Close()
			if err != nil {
				t.Fatal(err)
			}
			if 2*resV.FinalCorrect > cv.N {
				vecWins++
			}
			if 2*resS.FinalCorrect > cs.N {
				scaWins++
			}
		}
		z := twoProportionZ(vecWins, scaWins, trials)
		if math.Abs(z) > 4.5 {
			t.Fatalf("SF vec vs scalar win rate diverges: z = %.2f (vec %d/%d, scalar %d/%d)",
				z, vecWins, trials, scaWins, trials)
		}
	})
}

// TestVecScalarChiSquare: on a k = 4 alphabet the vec path draws one cached
// multinomial per agent while the scalar path samples h symbols through
// alias tables; both must realize the same display law. Each trial records
// the final per-symbol display fractions; each symbol's fractions are
// compared across paths with a Welch z over independent seeds, and the
// summed z² forms an aggregate chi-square-style statistic.
func TestVecScalarChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical A/B needs many trials")
	}
	const trials = 60
	const n = 400
	base := func(seed uint64) sim.Config {
		return sim.Config{
			N: n, H: 6, Sources1: 8, Sources0: 2,
			Noise:           uniformNoise(t, 4, 0.1),
			Protocol:        protocol.TrustBit{},
			Seed:            seed,
			Backend:         sim.BackendAggregate,
			MaxRounds:       25,
			StabilityWindow: 25,
			Workers:         1,
		}
	}
	sample := func(forceScalar, wantVec bool) [4][]float64 {
		var cols [4][]float64
		for tr := 0; tr < trials; tr++ {
			cfg := base(uint64(3000 + tr))
			cfg.ForceScalar = forceScalar
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Vectorized() != wantVec {
				t.Fatalf("Vectorized() = %v, want %v (ForceScalar=%v)", r.Vectorized(), wantVec, forceScalar)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			var cnt [4]int
			for i := 0; i < n; i++ {
				d, _, err := r.AgentState(i)
				if err != nil {
					t.Fatal(err)
				}
				cnt[d]++
			}
			r.Close()
			for j := 0; j < 4; j++ {
				cols[j] = append(cols[j], float64(cnt[j])/float64(n))
			}
		}
		return cols
	}
	vec := sample(false, true)
	sca := sample(true, false)
	chi2 := 0.0
	for j := 0; j < 4; j++ {
		z := welchZ(vec[j], sca[j])
		chi2 += z * z
		if math.Abs(z) > 4.5 {
			t.Errorf("symbol %d display fraction diverges between paths: z = %.2f (vec mean %.3f, scalar mean %.3f)",
				j, z, mean(vec[j]), mean(sca[j]))
		}
	}
	// Four ~N(0,1) components under the null: 40 sits far beyond any
	// plausible chi-square(4) quantile while staying robust to the mild
	// cross-symbol correlation (fractions sum to 1).
	if chi2 > 40 {
		t.Errorf("aggregate chi-square statistic %.1f over 4 symbols exceeds threshold 40", chi2)
	}
}

func sampleFinalCorrect(t *testing.T, base func(seed uint64) sim.Config, forceScalar bool, trials int, wantVec bool) []float64 {
	t.Helper()
	out := make([]float64, 0, trials)
	for tr := 0; tr < trials; tr++ {
		cfg := base(uint64(5000 + tr))
		cfg.ForceScalar = forceScalar
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Vectorized() != wantVec {
			t.Fatalf("Vectorized() = %v, want %v (ForceScalar=%v)", r.Vectorized(), wantVec, forceScalar)
		}
		res, err := r.Run()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, float64(res.FinalCorrect))
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func welchZ(a, b []float64) float64 {
	ma, mb := mean(a), mean(b)
	va, vb := 0.0, 0.0
	for _, x := range a {
		va += (x - ma) * (x - ma)
	}
	for _, x := range b {
		vb += (x - mb) * (x - mb)
	}
	va /= float64(len(a) - 1)
	vb /= float64(len(b) - 1)
	se := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	if se == 0 {
		if ma == mb {
			return 0
		}
		return math.Inf(1)
	}
	return (ma - mb) / se
}

func twoProportionZ(k1, k2, n int) float64 {
	p1, p2 := float64(k1)/float64(n), float64(k2)/float64(n)
	pool := (float64(k1) + float64(k2)) / float64(2*n)
	se := math.Sqrt(pool * (1 - pool) * 2 / float64(n))
	if se == 0 {
		return 0
	}
	return (p1 - p2) / se
}

// TestVecSnapshotResumeDeterminism: a vec run interrupted mid-flight — here
// mid-drift, with a swapped noise matrix and live fault telemetry — and
// resumed from its snapshot in a fresh runner must finish with the identical
// result and identical final engine state. The chunk stream states and SoA
// payload round-trip through the snapPopVec record.
func TestVecSnapshotResumeDeterminism(t *testing.T) {
	for _, tc := range vecCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t, 77)
			cfg.Workers = 2
			const snapRound = 16
			control, controlFinal := runWithFinalSnap(t, cfg)
			if control.Rounds <= snapRound {
				t.Fatalf("control finished at round %d, before snapshot round %d", control.Rounds, snapRound)
			}

			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if !r.Vectorized() {
				t.Fatal("expected the vectorized path")
			}
			var snap []byte
			r.SetOnRound(func(round, correct int) {
				if round == snapRound {
					s, err := r.Snapshot()
					if err != nil {
						t.Errorf("Snapshot at round %d: %v", round, err)
						return
					}
					snap = s
				}
			})
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("snapshot hook never fired")
			}

			r2, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if err := r2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			resumed, err := r2.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, resumed, "resumed vec result")
			resumedFinal, err := r2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(controlFinal, resumedFinal) {
				t.Fatal("final engine state differs between uninterrupted and resumed vec run")
			}
		})
	}
}

// TestVecCrossPathRestoreRejected: the scalar and vec paths draw randomness
// differently, so restoring one path's snapshot into the other would silently
// change the trajectory. Both directions must fail with an actionable error.
func TestVecCrossPathRestoreRejected(t *testing.T) {
	cfg := vecCases()[0].cfg(t, 5)

	vecRunner, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer vecRunner.Close()
	vecSnap, err := vecRunner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	scalarCfg := cfg
	scalarCfg.ForceScalar = true
	scalarRunner, err := sim.New(scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer scalarRunner.Close()
	scalarSnap, err := scalarRunner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if err := scalarRunner.Restore(vecSnap); err == nil {
		t.Fatal("vec snapshot restored into a scalar runner")
	} else if !strings.Contains(err.Error(), "vectorized") {
		t.Fatalf("vec-into-scalar error should name the path mismatch, got: %v", err)
	}
	scalarRunner.Reset(scalarCfg.Seed)

	if err := vecRunner.Restore(scalarSnap); err == nil {
		t.Fatal("scalar snapshot restored into a vec runner")
	} else if !strings.Contains(err.Error(), "vectorized") {
		t.Fatalf("scalar-into-vec error should name the path mismatch, got: %v", err)
	}
}

// TestVecEligibility enumerates the routing predicate: everything the vec
// kernels can honor goes vec — graph topologies, alphabets > 2, and the
// full fault palette included — and only the documented exclusions (counts
// backend, protocols without kernels, explicit opt-out) stay on the scalar
// path. The CI vec-parity step runs this test by name, so a regression that
// silently reroutes an eligible config to the scalar path fails the build.
func TestVecEligibility(t *testing.T) {
	base := func() sim.Config {
		return sim.Config{
			N: 200, H: 4, Sources1: 3, Sources0: 1,
			Noise:     uniformNoise(t, 2, 0.1),
			Protocol:  protocol.Voter{},
			Seed:      1,
			MaxRounds: 10,
		}
	}
	ring, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(c *sim.Config)
		vec  bool
	}{
		{"voter auto(exact h<=8)", func(c *sim.Config) {}, true},
		{"voter aggregate", func(c *sim.Config) { c.Backend = sim.BackendAggregate }, true},
		{"majority exact", func(c *sim.Config) { c.Protocol = protocol.MajorityRule{} }, true},
		{"sf aggregate", func(c *sim.Config) {
			c.Protocol = protocol.NewSF()
			c.Backend = sim.BackendAggregate
			c.H = 16
			c.MaxRounds = 5000
		}, true},
		{"noise-only faults", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindNoiseDrift, Round: 3, Delta: 0.1, DriftRounds: 2},
			}}
		}, true},
		{"topology", func(c *sim.Config) { c.Topology = ring }, true},
		{"corrupt fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCorrupt, Round: 3, Fraction: 0.1, Corruption: faults.CorruptRandom},
			}}
		}, true},
		{"crash fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCrash, Round: 3, Fraction: 0.1, Duration: 2},
			}}
		}, true},
		{"churn fault", func(c *sim.Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindChurn, Round: 3, Fraction: 0.1},
			}}
		}, true},
		{"alphabet 4 trustbit", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
			c.H = 40
			c.Backend = sim.BackendAggregate
		}, true},
		{"alphabet 4 ssf exact", func(c *sim.Config) {
			c.Protocol = protocol.NewSSF(protocol.WithSSFUpdateQuota(32))
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Backend = sim.BackendExact
			c.MaxRounds = 30
		}, true},
		{"alphabet 4 on topology", func(c *sim.Config) {
			c.Protocol = protocol.TrustBit{}
			c.Noise = uniformNoise(t, 4, 0.1)
			c.Topology = ring
		}, true},
		{"crash+churn on graph", func(c *sim.Config) {
			c.Topology = ring
			c.Faults = &faults.Schedule{Events: []faults.Event{
				{Kind: faults.KindCrash, Round: 3, Fraction: 0.2, Duration: 3},
				{Kind: faults.KindChurn, Round: 5, Fraction: 0.1},
			}}
		}, true},
		{"force scalar", func(c *sim.Config) { c.ForceScalar = true }, false},
		{"counts backend", func(c *sim.Config) { c.Backend = sim.BackendCounts }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Vectorized() != tc.vec {
				t.Fatalf("Vectorized() = %v, want %v", r.Vectorized(), tc.vec)
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundAllocFree: once warm, a round allocates nothing in any vector
// regime or on the counts backend. The k-ary joint case rebuilds the round's
// joint multinomial alias table (Init + PrecomputeJoint) every round; the
// k-ary conditional case (h = 64, k = 4: support above maxJointSupport)
// samples symbol by symbol instead; the crash case steps past a live crash
// event; the scalar cases run the per-agent definition (ForceScalar) on the
// same loop. Workers is 1 because Step does not attach the worker pool.
func TestRoundAllocFree(t *testing.T) {
	ring, err := graph.Ring(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	binary := func(proto sim.Protocol) sim.Config {
		return sim.Config{
			N: 500, H: 16, Sources1: 3, Sources0: 1,
			Noise:    uniformNoise(t, 2, 0.1),
			Protocol: proto,
		}
	}
	kary := func(h int) sim.Config {
		return sim.Config{
			N: 500, H: h, Sources1: 10, Sources0: 3,
			Noise:    uniformNoise(t, 4, 0.05),
			Protocol: protocol.NewSSF(),
			Backend:  sim.BackendAggregate,
		}
	}
	onRing := binary(protocol.NewSF())
	onRing.Topology = ring
	crashed := binary(protocol.MajorityRule{})
	crashed.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.KindCrash, Round: 2, Fraction: 0.3, Duration: 10000},
	}}
	counts := binary(protocol.Voter{})
	counts.N, counts.Backend = 100000, sim.BackendCounts
	// The per-agent definition on the same loop: its reference samplers
	// (exact mixture alias, nested multinomials, neighbourhood draws) and
	// crash masking must be allocation-free too.
	scalar := func(cfg sim.Config) sim.Config {
		cfg.ForceScalar = true
		return cfg
	}
	scalarExact := binary(protocol.NewSF())
	scalarExact.Backend = sim.BackendExact
	scalarAggregate := binary(protocol.Voter{})
	scalarAggregate.Backend = sim.BackendAggregate

	cases := []struct {
		name string
		cfg  sim.Config
	}{
		{"sf-binary", binary(protocol.NewSF())},
		{"voter", binary(protocol.Voter{})},
		{"kary-joint", kary(16)},
		{"kary-conditional", kary(64)},
		{"ring", onRing},
		{"crash", crashed},
		{"counts", counts},
		{"scalar-exact", scalar(scalarExact)},
		{"scalar-aggregate", scalar(scalarAggregate)},
		{"scalar-ring", scalar(onRing)},
		{"scalar-crash", scalar(crashed)},
		{"scalar-kary-ssf", scalar(kary(16))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed, cfg.Workers, cfg.MaxRounds = 5, 1, 1000
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if want := cfg.Backend != sim.BackendCounts && !cfg.ForceScalar; r.Vectorized() != want {
				t.Fatalf("Vectorized() = %v, want %v", r.Vectorized(), want)
			}
			step := func() {
				if _, err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Fatalf("steady-state round: %v allocs, want 0", allocs)
			}
		})
	}
}

// TestVecAgentWeakOpinion: the weak-opinion accessor must work on every
// vectorized population whose protocol forms one — including the k-ary SSF
// population and graph-topology runs — and report ok = false (not a silent
// zero with ok = true) for protocols without a weak opinion.
func TestVecAgentWeakOpinion(t *testing.T) {
	ring, err := graph.Ring(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     sim.Config
		hasWeak bool
	}{
		{
			name: "ssf k4 complete",
			cfg: sim.Config{
				N: 300, H: 8, Sources1: 6, Sources0: 2,
				Noise:     uniformNoise(t, 4, 0.1),
				Protocol:  protocol.NewSSF(protocol.WithSSFUpdateQuota(32)),
				Seed:      11,
				Backend:   sim.BackendAggregate,
				MaxRounds: 20, StabilityWindow: 20,
			},
			hasWeak: true,
		},
		{
			name: "sf ring graph",
			cfg: sim.Config{
				N: 300, H: 8, Sources1: 3, Sources0: 1,
				Noise:     uniformNoise(t, 2, 0.15),
				Protocol:  protocol.NewSF(),
				Topology:  ring,
				Seed:      12,
				Backend:   sim.BackendExact,
				MaxRounds: 400,
			},
			hasWeak: true,
		},
		{
			name: "trustbit k4 complete",
			cfg: sim.Config{
				N: 300, H: 6, Sources1: 6, Sources0: 2,
				Noise:     uniformNoise(t, 4, 0.1),
				Protocol:  protocol.TrustBit{},
				Seed:      13,
				Backend:   sim.BackendAggregate,
				MaxRounds: 20, StabilityWindow: 20,
			},
			hasWeak: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := sim.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if !r.Vectorized() {
				t.Fatal("expected the vectorized path")
			}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, tc.cfg.N / 2, tc.cfg.N - 1} {
				weak, ok := r.AgentWeakOpinion(i)
				if ok != tc.hasWeak {
					t.Fatalf("agent %d: AgentWeakOpinion ok = %v, want %v", i, ok, tc.hasWeak)
				}
				if ok && weak != 0 && weak != 1 {
					t.Fatalf("agent %d: weak opinion %d outside {0,1}", i, weak)
				}
			}
		})
	}
}
