// Pool crash recovery: each shard is an independent controller over an
// independent device, so recovering a pool is recovering each crashed
// shard with the existing (serial-equivalent, differentially verified)
// parallel recovery engine — all shards concurrently. Cleanly shut-down
// shards need no recovery and are left untouched.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/obs"
	"repro/internal/recovery"
)

// PoolImage is the persistent state a pool leaves behind after
// CrashShards/Crash/Shutdown: one device image per shard plus which
// shards crashed (vs. shut down cleanly). It is what RecoverPool repairs
// and Open re-attaches.
type PoolImage struct {
	Shards  int
	Crashed []bool
	Devices []*nvm.Device

	// Flights holds each shard's flight-recorder snapshot taken at the
	// crash/shutdown point — the black box that ships with the image.
	// Optional: images constructed by hand (tests, deserialization) may
	// leave it nil; validate does not require it.
	Flights []obs.FlightRecord
}

// validate checks the image geometry against a shard count.
func (img *PoolImage) validate(shards int) error {
	if img == nil {
		return errors.New("engine: nil pool image")
	}
	if img.Shards != shards || len(img.Devices) != shards || len(img.Crashed) != shards {
		return fmt.Errorf("engine: image geometry (%d shards, %d devices, %d crash flags) does not match %d shards",
			img.Shards, len(img.Devices), len(img.Crashed), shards)
	}
	for i, d := range img.Devices {
		if d == nil {
			return fmt.Errorf("engine: image shard %d has no device", i)
		}
	}
	return nil
}

// PoolReport is RecoverPool's outcome: one recovery report per crashed
// shard (nil for shards that shut down cleanly and were skipped).
type PoolReport struct {
	Shards  []*recovery.Report
	Crashed []bool
}

// String summarizes the pool recovery.
func (r *PoolReport) String() string {
	recovered, entries := 0, int64(0)
	for i, rep := range r.Shards {
		if r.Crashed[i] && rep != nil {
			recovered++
			entries += rep.PUBEntries
		}
	}
	return fmt.Sprintf("pool recovery: %d/%d shards recovered, %d PUB entries merged",
		recovered, len(r.Shards), entries)
}

// RecoverPool restores a crashed pool image in place: every crashed
// shard runs RecoverParallel concurrently (clean shards are skipped),
// each with opts.Workers merge/rebuild goroutines — <= 0 splits
// GOMAXPROCS evenly across the crashed shards. The per-shard reports
// (and sentinel errors: ErrRootMismatch on tampering, ErrNoControlState
// on lost ADR state — test with errors.Is) surface in the PoolReport and
// the joined error.
func RecoverPool(cfg config.Config, shards int, img *PoolImage, opts recovery.RecoverOpts) (*PoolReport, error) {
	scfg, err := shardConfig(cfg, shards)
	if err != nil {
		return nil, err
	}
	if err := img.validate(shards); err != nil {
		return nil, err
	}
	crashed := 0
	for _, c := range img.Crashed {
		if c {
			crashed++
		}
	}
	workers := opts.Workers
	if workers <= 0 && crashed > 0 {
		if workers = runtime.GOMAXPROCS(0) / crashed; workers < 1 {
			workers = 1
		}
	}
	if scfg.Tracer != nil {
		scfg.Tracer = obs.Locked(scfg.Tracer)
	}
	rep := &PoolReport{
		Shards:  make([]*recovery.Report, shards),
		Crashed: append([]bool(nil), img.Crashed...),
	}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		if !img.Crashed[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := recovery.RecoverParallel(scfg, img.Devices[i],
				recovery.RecoverOpts{Workers: workers})
			rep.Shards[i] = r
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	return rep, errors.Join(errs...)
}

// Open attaches a pool to an existing image — one left by Shutdown, or
// by CrashShards followed by a successful RecoverPool. The configuration
// and shard count must match the image.
func Open(cfg config.Config, shards int, img *PoolImage) (*Pool, error) {
	if err := img.validate(shards); err != nil {
		return nil, err
	}
	return newPool(cfg, shards, func(scfg config.Config, i int) (*core.Controller, error) {
		return core.Attach(scfg, img.Devices[i])
	})
}
