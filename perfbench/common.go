package main

import (
	"bytes"
	"fmt"
	"time"

	thoth "repro"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/stats"
)

// quickConfig is the quick-scale machine every workload runs on: 1 GiB
// of NVM, a 256 KiB PUB and a 1 MiB LLC (harness.QuickScale), Table I
// latencies and 4 modeled cores, under the paper's adopted Thoth-WTSC
// scheme. The seed drives every pseudo-random choice of the program.
func quickConfig(seed int64) config.Config {
	sc := harness.QuickScale()
	cfg := config.Default()
	cfg.Scheme = config.ThothWTSC
	cfg.MemBytes = sc.MemBytes
	cfg.PUBBytes = sc.PUBBytes
	cfg.LLCBytes = sc.LLCBytes
	cfg.Seed = seed
	return cfg
}

// modelCounts records the modeled counts of a measured phase: st covers
// the phase, tx is its unit count (transactions or ops).
func modelCounts(r *rep, st *stats.Stats, tx int64) {
	per := func(v int64) float64 { return frac(v, tx) }
	m := r.model
	m["cache.ctr_hit_rate"] = st.CtrHitRate()
	m["cache.mac_hit_rate"] = st.MACHitRate()
	m["cache.mt_hit_rate"] = st.MTHitRate()
	m["pub.pcb_merge_rate"] = st.PCBMergeRate()
	m["pub.entry_evictions_per_tx"] = per(st.PUBEntryEvictions)
	m["pub.evict_written_back_frac"] = st.EvictShare(stats.EvictWrittenBack)
	m["wpq.stall_cycles_per_tx"] = per(st.WPQStallCycles)
	m["wpq.coalesced_per_tx"] = per(st.WPQCoalesced)
	m["nvm.reads_per_tx"] = per(st.NVMReads)
	m["nvm.writes_data_per_tx"] = per(st.Writes(stats.WriteData))
	m["nvm.writes_counter_per_tx"] = per(st.Writes(stats.WriteCounter))
	m["nvm.writes_mac_per_tx"] = per(st.Writes(stats.WriteMAC))
	m["nvm.writes_pcb_per_tx"] = per(st.Writes(stats.WritePCB))
	m["nvm.writes_tree_per_tx"] = per(st.Writes(stats.WriteTree))
	m["ctr.overflows"] = float64(st.CtrOverflows)
	m["nvm_writes_per_tx"] = per(st.TotalWrites())
}

// imageRoundTrip saves dev through SaveImage and loads it back with
// LoadImage, as a crashed machine's image would travel between
// processes. It returns the loaded device and the load time.
func imageRoundTrip(r *rep, m mode, dev *thoth.Device) (*thoth.Device, time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := thoth.SaveImage(dev, &buf); err != nil {
		return nil, 0, fmt.Errorf("save image: %w", err)
	}
	t1 := time.Now()
	loaded, err := thoth.LoadImage(&buf)
	if err != nil {
		return nil, 0, fmt.Errorf("load image: %w", err)
	}
	load := time.Since(t1)
	if m == modeTimed {
		r.layer["nvm.save_image_s"] += t1.Sub(t0).Seconds()
		r.layer["nvm.load_image_s"] += load.Seconds()
	}
	return loaded, load, nil
}

// recoverImage runs crash recovery on one device image. The plain and
// profiled runs use the serial Recover; the timed run uses
// RecoverParallel with one worker, whose image and report counts are
// byte-identical to Recover (the determinism guard checks the counts)
// and which also reports the host time of each recovery phase.
func recoverImage(r *rep, m mode, cfg config.Config, dev *thoth.Device) (time.Duration, error) {
	t0 := time.Now()
	var rr *thoth.RecoveryReport
	var err error
	if m == modeTimed {
		rr, err = thoth.RecoverParallel(cfg, dev, thoth.RecoverOpts{Workers: 1})
	} else {
		rr, err = thoth.Recover(cfg, dev)
	}
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("recover: %w", err)
	}
	addRecovery(r, m, rr)
	return d, nil
}

// addRecovery folds one recovery report into the repetition: the
// recovery counts, the §IV-D modeled recovery cycles, and (timed runs)
// the per-phase host times.
func addRecovery(r *rep, m mode, rr *thoth.RecoveryReport) {
	r.model["recovery.pub_entries"] += float64(rr.PUBEntries)
	r.model["recovery.merged_ctr"] += float64(rr.MergedCtr)
	r.model["recovery.merged_mac"] += float64(rr.MergedMAC)
	r.model["recovery.skipped_stale"] += float64(rr.SkippedStale)
	// The modeled pool recovers its shards in parallel, so the modeled
	// time of several reports is the slowest one.
	r.model["recovery.model_cycles"] = max(r.model["recovery.model_cycles"], float64(rr.EstimatedCycles))
	if m == modeTimed {
		r.layer["recovery.scan_s"] += float64(rr.ScanWallNS) / 1e9
		r.layer["recovery.merge_s"] += float64(rr.MergeWallNS) / 1e9
		r.layer["recovery.rebuild_s"] += float64(rr.RebuildWallNS) / 1e9
		r.layer["recovery.verify_s"] += float64(rr.VerifyWallNS) / 1e9
	}
	r.check(rr.RootVerified, "recovered integrity-tree root does not verify")
}

// finishRecovery derives the stale ratio once every report is folded.
func finishRecovery(r *rep) {
	r.model["recovery.stale_frac"] = r.model["recovery.skipped_stale"] / max(r.model["recovery.pub_entries"], 1)
}
