// Snapshot/Restore determinism tests. They live in the external test package
// so they can exercise the real protocols from internal/protocol (which
// imports sim).
package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"noisypull/internal/faults"
	"noisypull/internal/graph"
	"noisypull/internal/noise"
	"noisypull/internal/protocol"
	"noisypull/internal/sim"
)

// snapCase is one backend/protocol/fault combination the determinism test
// covers. snapRound is the round the mid-run snapshot is taken at; it must be
// well before the run's natural end so the resumed portion is non-trivial.
type snapCase struct {
	name      string
	cfg       func(t *testing.T) sim.Config
	snapRound int
}

func snapCases() []snapCase {
	return []snapCase{
		{
			// SF on the exact backend under a hostile schedule: mid-run
			// corruption, a crash window, and a noise drift all have live
			// runtime state (crash bookkeeping, drift interpolation, fault
			// telemetry) that the snapshot must carry.
			name: "sf exact faults",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 400, H: 16, Sources1: 1,
					Noise:    uniformNoise(t, 2, 0.15),
					Protocol: protocol.NewSF(),
					Seed:     7,
					Backend:  sim.BackendExact,
					Workers:  2,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindCorrupt, Round: 5, Fraction: 0.3, Corruption: faults.CorruptRandom},
						{Kind: faults.KindCrash, Round: 8, Fraction: 0.2, Duration: 6},
						{Kind: faults.KindNoiseDrift, Round: 10, Delta: 0.25, DriftRounds: 8},
					}},
				}
			},
			snapRound: 9, // inside the crash window, before the drift starts
		},
		{
			name: "ssf aggregate",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 300, H: 64, Sources1: 2,
					Noise:           uniformNoise(t, 4, 0.1),
					Protocol:        protocol.NewSSF(),
					Seed:            3,
					Backend:         sim.BackendAggregate,
					MaxRounds:       400,
					StabilityWindow: 8,
					Workers:         2,
				}
			},
			snapRound: 6,
		},
		{
			name: "voter counts noise swap",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 5000, H: 5, Sources1: 40,
					Noise:           uniformNoise(t, 2, 0.2),
					Protocol:        protocol.Voter{},
					Seed:            11,
					Backend:         sim.BackendCounts,
					MaxRounds:       200,
					StabilityWindow: 3,
					Faults: &faults.Schedule{Events: []faults.Event{
						{Kind: faults.KindNoiseSwap, Round: 12, Matrix: mustUniform(0.05)},
					}},
				}
			},
			snapRound: 15, // after the swap: the dirty matrix must be carried
		},
		{
			name: "majority exact corruption init",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 200, H: 7, Sources1: 10,
					Noise:           uniformNoise(t, 2, 0.1),
					Protocol:        protocol.MajorityRule{},
					Seed:            5,
					Backend:         sim.BackendExact,
					MaxRounds:       300,
					StabilityWindow: 4,
					Corruption:      sim.CorruptWrongConsensus,
					Workers:         1,
				}
			},
			snapRound: 3,
		},
		{
			name: "trustbit aggregate",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					N: 500, H: 40, Sources1: 3,
					Noise:           uniformNoise(t, 4, 0.05),
					Protocol:        protocol.TrustBit{},
					Seed:            2,
					Backend:         sim.BackendAggregate,
					MaxRounds:       200,
					StabilityWindow: 5,
					Workers:         2,
				}
			},
			snapRound: 2,
		},
	}
}

func mustUniform(delta float64) *noise.Matrix {
	m, err := noise.Uniform(2, delta)
	if err != nil {
		panic(err)
	}
	return m
}

// run executes a fresh runner over cfg and returns the result plus a
// final-state snapshot (the bit-identity witness).
func runWithFinalSnap(t *testing.T, cfg sim.Config) (*sim.Result, []byte) {
	t.Helper()
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return res, snap
}

func sameResult(t *testing.T, want, got *sim.Result, label string) {
	t.Helper()
	if want.Rounds != got.Rounds || want.Converged != got.Converged ||
		want.FirstAllCorrect != got.FirstAllCorrect ||
		want.FinalCorrect != got.FinalCorrect ||
		want.CorrectOpinion != got.CorrectOpinion {
		t.Fatalf("%s: result diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
	if !reflect.DeepEqual(want.Faults, got.Faults) {
		t.Fatalf("%s: fault telemetry diverged:\nwant %+v\ngot  %+v", label, want.Faults, got.Faults)
	}
}

// TestSnapshotResumeDeterminism is the core resume guarantee: a run
// interrupted at round k and resumed from its snapshot in a fresh runner
// finishes with exactly the same result and exactly the same final engine
// state as the uninterrupted run — across backends, protocols, and live
// fault schedules.
func TestSnapshotResumeDeterminism(t *testing.T) {
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			control, controlFinal := runWithFinalSnap(t, cfg)
			if control.Rounds <= tc.snapRound {
				t.Fatalf("control finished at round %d, before the snapshot round %d", control.Rounds, tc.snapRound)
			}

			// Take the mid-run snapshot from an OnRound hook.
			r, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var snap []byte
			r.SetOnRound(func(round, correct int) {
				if round == tc.snapRound {
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

			// Resume in a fresh runner.
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
			sameResult(t, control, resumed, "resumed result")
			resumedFinal, err := r2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(controlFinal, resumedFinal) {
				t.Fatal("final engine state differs between uninterrupted and resumed run")
			}

			// Resume also works on a leased (Reset) runner, the service's
			// steady-state path.
			r2.Reset(cfg.Seed)
			if err := r2.Restore(snap); err != nil {
				t.Fatal(err)
			}
			again, err := r2.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, again, "reset+restored result")
		})
	}
}

// TestSnapshotRoundZero: a snapshot taken before any round runs restores to
// the exact initial state.
func TestSnapshotRoundZero(t *testing.T) {
	cfg := snapCases()[0].cfg(t)
	control, _ := runWithFinalSnap(t, cfg)

	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, res, "round-0 restore")
}

// TestSnapshotCheckpointHook: SetCheckpoint fires at the configured cadence
// and its snapshots resume correctly.
func TestSnapshotCheckpointHook(t *testing.T) {
	cfg := snapCases()[1].cfg(t)
	control, _ := runWithFinalSnap(t, cfg)

	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var rounds []int
	var last []byte
	r.SetCheckpoint(4, func(round int, snapshot []byte) {
		rounds = append(rounds, round)
		last = append(last[:0], snapshot...)
	})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("checkpoint hook never fired")
	}
	for i, rd := range rounds {
		if rd%4 != 0 {
			t.Fatalf("checkpoint %d fired at round %d, not a multiple of 4", i, rd)
		}
	}

	r2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Restore(last); err != nil {
		t.Fatal(err)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, res, "last-checkpoint restore")
}

// TestSnapshotRestoreRejections: corrupted, truncated, or mismatched
// snapshots fail loudly instead of silently diverging.
func TestSnapshotRestoreRejections(t *testing.T) {
	cfg := snapCases()[3].cfg(t) // majority exact, no faults
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func(mut func(c *sim.Config)) *sim.Runner {
		c := cfg
		if mut != nil {
			mut(&c)
		}
		r2, err := sim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r2.Close)
		return r2
	}

	t.Run("bit flip fails checksum", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 0x40
		if err := fresh(nil).Restore(bad); err == nil {
			t.Fatal("corrupted snapshot accepted")
		}
	})
	t.Run("truncation fails", func(t *testing.T) {
		for _, n := range []int{0, 1, 5, len(snap) / 2, len(snap) - 1} {
			if err := fresh(nil).Restore(snap[:n]); err == nil {
				t.Fatalf("snapshot truncated to %d bytes accepted", n)
			}
		}
	})
	t.Run("different seed fails fingerprint", func(t *testing.T) {
		err := fresh(func(c *sim.Config) { c.Seed++ }).Restore(snap)
		if err == nil {
			t.Fatal("snapshot restored under a different seed")
		}
	})
	t.Run("different shape fails fingerprint", func(t *testing.T) {
		err := fresh(func(c *sim.Config) { c.H++ }).Restore(snap)
		if err == nil {
			t.Fatal("snapshot restored under a different h")
		}
	})
	t.Run("different protocol fails fingerprint", func(t *testing.T) {
		err := fresh(func(c *sim.Config) { c.Protocol = protocol.Voter{} }).Restore(snap)
		if err == nil {
			t.Fatal("snapshot restored under a different protocol")
		}
	})
	t.Run("different round budget is fine", func(t *testing.T) {
		r2 := fresh(func(c *sim.Config) { c.MaxRounds = cfg.MaxRounds * 2 })
		if err := r2.Restore(snap); err != nil {
			t.Fatalf("round budget should not pin a snapshot: %v", err)
		}
	})
	t.Run("garbage fails", func(t *testing.T) {
		if err := fresh(nil).Restore([]byte("not a snapshot, definitely")); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// TestSnapshotFingerprintRejectsConfigChanges: a checkpoint restores only
// into the configuration it was taken under. Each row changes one thing the
// trajectory depends on but the population shape does not show — the
// graph's adjacency, a protocol option, the protocol variant — and the
// restore must fail; restoring into a runner rebuilt from fresh values of
// the same configuration must still succeed.
func TestSnapshotFingerprintRejectsConfigChanges(t *testing.T) {
	ring, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := graph.RandomRegular(200, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	ringCopy, err := graph.Ring(200, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := func(proto sim.Protocol, d int) sim.Config {
		return sim.Config{
			N: 200, H: 8, Sources1: 4, Sources0: 1,
			Noise:     uniformNoise(t, d, 0.1),
			Protocol:  proto,
			Seed:      21,
			Backend:   sim.BackendExact,
			MaxRounds: 50,
		}
	}
	cases := []struct {
		name     string
		from, to sim.Config
	}{
		{"ring into random regular", withTopology(base(protocol.Voter{}, 2), ring), withTopology(base(protocol.Voter{}, 2), regular)},
		{"ssf quota 64 into quota 32",
			base(protocol.NewSSF(protocol.WithSSFUpdateQuota(64)), 4),
			base(protocol.NewSSF(protocol.WithSSFUpdateQuota(32)), 4)},
		{"scalar sf into sf alternating",
			withForceScalar(base(protocol.NewSF(), 2)),
			withForceScalar(base(protocol.NewSFAlternating(), 2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := sim.New(tc.from)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := sim.New(tc.to)
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			if err := dst.Restore(snap); err == nil {
				t.Fatal("snapshot restored into a different configuration")
			}
		})
	}
	t.Run("same configuration rebuilt", func(t *testing.T) {
		for _, pair := range [][2]sim.Config{
			{withTopology(base(protocol.Voter{}, 2), ring), withTopology(base(protocol.Voter{}, 2), ringCopy)},
			{base(protocol.NewSSF(protocol.WithSSFUpdateQuota(64)), 4), base(protocol.NewSSF(protocol.WithSSFUpdateQuota(64)), 4)},
			{withForceScalar(base(protocol.NewSFAlternating(), 2)), withForceScalar(base(protocol.NewSFAlternating(), 2))},
		} {
			src, err := sim.New(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			snap, err := src.Snapshot()
			src.Close()
			if err != nil {
				t.Fatal(err)
			}
			dst, err := sim.New(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			err = dst.Restore(snap)
			dst.Close()
			if err != nil {
				t.Fatalf("%T: %v", pair[0].Protocol, err)
			}
		}
	})
}

func withTopology(c sim.Config, g *graph.Graph) sim.Config {
	c.Topology = g
	return c
}

func withForceScalar(c sim.Config) sim.Config {
	c.ForceScalar = true
	return c
}
