package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"noisypull"
)

func buildSpec(t *testing.T, spec JobSpec) noisypull.Config {
	t.Helper()
	spec.normalize()
	cfg, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRunSeedsMatchesRun: each seed's result equals a direct noisypull.Run
// of the same seed, and prepare runs once per seed, before that seed.
func TestRunSeedsMatchesRun(t *testing.T) {
	seeds := []uint64{3, 1, 4}
	cfg := buildSpec(t, quickSpec(seeds...))
	var log []string
	var got []SeedResult
	err := RunSeeds(context.Background(), cfg, seeds,
		func(r *noisypull.Runner, seed uint64) {
			if r == nil {
				t.Error("prepare got a nil runner")
			}
			log = append(log, fmt.Sprint("prepare ", seed))
		},
		func(sr SeedResult) {
			log = append(log, fmt.Sprint("emit ", sr.Seed))
			got = append(got, sr)
		})
	if err != nil {
		t.Fatal(err)
	}
	wantLog := []string{"prepare 3", "emit 3", "prepare 1", "emit 1", "prepare 4", "emit 4"}
	if !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("call order %q, want %q", log, wantLog)
	}
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := noisypull.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := MakeSeedResult(seed, res); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("seed %d: RunSeeds %+v, Run %+v", seed, got[i], want)
		}
	}
}

// TestRunSeedsStopsOnCancel: a context cancelled during one seed stops the
// loop before the next seed is prepared.
func TestRunSeedsStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prepared, emitted := 0, 0
	err := RunSeeds(ctx, buildSpec(t, quickSpec()), []uint64{1, 2, 3},
		func(*noisypull.Runner, uint64) { prepared++ },
		func(SeedResult) { emitted++; cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if prepared != 1 || emitted != 1 {
		t.Fatalf("prepared %d and emitted %d seeds, want 1 and 1", prepared, emitted)
	}
}

// TestRunSeedsRecoversPanic: a protocol panic comes back as an error on the
// calling goroutine, which keeps running.
func TestRunSeedsRecoversPanic(t *testing.T) {
	testProtocols = map[string]noisypull.Protocol{"test-panic": panicProto{}}
	defer func() { testProtocols = nil }()
	cfg := buildSpec(t, JobSpec{N: 50, H: 4, Sources1: 1, Delta: 0.1, Protocol: "test-panic", MaxRounds: 100})
	err := RunSeeds(context.Background(), cfg, []uint64{1, 2}, nil, func(SeedResult) {
		t.Error("a panicking seed emitted a result")
	})
	if err == nil || !strings.Contains(err.Error(), "panic in protocol/engine") || !errors.Is(err, errPanic) {
		t.Fatalf("err = %v, want a recovered panic", err)
	}
}
