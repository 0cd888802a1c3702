package thoth

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// poolConfig shrinks the geometry for pool tests: small module so the
// per-shard slices stay cheap, PUB small enough that evictions happen.
func poolConfig() Config {
	cfg := testConfig(WTSC)
	cfg.MemBytes = 64 << 20
	cfg.PUBBytes = 64 << 10
	return cfg
}

// splitmix is a tiny deterministic generator for test traffic.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// driveOps applies a deterministic mixed workload — partial writes,
// cross-block writes, aligned batches — through the given write/batch
// functions, confined to [0, size).
func driveOps(t *testing.T, seed uint64, size int64, bs int64,
	write func(addr int64, data []byte) error, batch func([]WriteReq) error) map[int64][]byte {
	t.Helper()
	rng := splitmix(seed)
	golden := make(map[int64][]byte) // block base -> plaintext
	apply := func(addr int64, data []byte) {
		for off := int64(0); off < int64(len(data)); {
			blk := (addr + off) / bs * bs
			g, ok := golden[blk]
			if !ok {
				g = make([]byte, bs)
				golden[blk] = g
			}
			lo := addr + off - blk
			n := bs - lo
			if rem := int64(len(data)) - off; n > rem {
				n = rem
			}
			copy(g[lo:lo+n], data[off:off+n])
			off += n
		}
	}
	for i := 0; i < 120; i++ {
		switch rng.next() % 3 {
		case 0: // partial / unaligned write spanning up to 3 blocks
			n := int64(1 + rng.next()%uint64(3*bs-1))
			addr := int64(rng.next() % uint64(size-n))
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(rng.next())
			}
			if err := write(addr, data); err != nil {
				t.Fatalf("op %d: write(%d,+%d): %v", i, addr, n, err)
			}
			apply(addr, data)
		case 1: // aligned full-block write
			addr := int64(rng.next()%uint64(size/bs)) * bs
			data := make([]byte, bs)
			for j := range data {
				data[j] = byte(rng.next())
			}
			if err := write(addr, data); err != nil {
				t.Fatalf("op %d: write(%d): %v", i, addr, err)
			}
			apply(addr, data)
		case 2: // batch of aligned blocks scattered across the region
			reqs := make([]WriteReq, 1+rng.next()%8)
			for r := range reqs {
				addr := int64(rng.next()%uint64(size/bs)) * bs
				data := make([]byte, bs)
				for j := range data {
					data[j] = byte(rng.next())
				}
				reqs[r] = WriteReq{Addr: addr, Data: data}
			}
			if err := batch(reqs); err != nil {
				t.Fatalf("op %d: batch: %v", i, err)
			}
			for _, r := range reqs {
				apply(r.Addr, r.Data)
			}
		}
	}
	return golden
}

// TestPoolOneShardMatchesSystem drives a System and a one-shard Pool
// with the identical operation stream and requires byte-identical
// results at every level: read-back plaintext, statistics (including
// modeled cycles), and the final shut-down device image.
func TestPoolOneShardMatchesSystem(t *testing.T) {
	cfg := poolConfig()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pool.DataSize() > sys.DataSize() {
		t.Fatalf("pool data %d exceeds system data %d", pool.DataSize(), sys.DataSize())
	}
	size := pool.DataSize()
	bs := int64(cfg.BlockSize)

	golden := driveOps(t, 42, size, bs, sys.Write, sys.PersistBatch)
	poolGolden := driveOps(t, 42, size, bs, pool.Write, pool.PersistBatch)
	if len(golden) != len(poolGolden) {
		t.Fatalf("golden divergence: %d vs %d blocks", len(golden), len(poolGolden))
	}

	for blk, want := range golden {
		got, err := pool.Read(blk, int(bs))
		if err != nil {
			t.Fatalf("pool read %d: %v", blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pool block %d diverges from golden", blk)
		}
		sgot, err := sys.Read(blk, int(bs))
		if err != nil {
			t.Fatalf("system read %d: %v", blk, err)
		}
		if !bytes.Equal(sgot, got) {
			t.Fatalf("block %d: pool and system plaintext diverge", blk)
		}
	}

	pst, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sst := sys.Stats(); pst != sst {
		t.Fatalf("one-shard pool stats diverge from system:\npool:   %+v\nsystem: %+v", pst, sst)
	}

	pimg, err := pool.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	simg, err := sys.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if !pimg.Devices[0].Equal(simg) {
		t.Fatal("one-shard pool device image diverges from system image")
	}
}

// TestPoolCrashSubsetRecover writes across a 4-shard pool, crashes a
// strict subset of the shards (the rest shut down cleanly), recovers,
// reopens, and requires every byte back.
func TestPoolCrashSubsetRecover(t *testing.T) {
	cfg := poolConfig()
	const shards = 4
	pool, err := NewPool(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	bs := int64(cfg.BlockSize)
	golden := driveOps(t, 7, pool.DataSize(), bs, pool.Write, pool.PersistBatch)

	mask := []bool{true, false, true, true}
	img, err := pool.CrashShards(mask)
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := pool.Read(0, int(bs)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: err = %v, want ErrCrashed", err)
	}

	rep, err := RecoverPool(cfg, shards, img, RecoverOpts{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i, crashed := range mask {
		if crashed == (rep.Shards[i] == nil) {
			t.Fatalf("shard %d: crashed=%v but report=%v", i, crashed, rep.Shards[i])
		}
	}

	pool2, err := OpenPool(cfg, shards, img)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer pool2.Shutdown()
	for blk, want := range golden {
		got, err := pool2.Read(blk, int(bs))
		if err != nil {
			t.Fatalf("read %d after recovery: %v", blk, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d lost across crash+recovery", blk)
		}
	}
}

// TestPoolNoShardGoroutines: shard ops run on the calling goroutine, so
// building a pool starts no goroutines and a pool that is never shut
// down leaks none.
func TestPoolNoShardGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	pool, err := NewPool(poolConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("NewPool(cfg, 16): %d goroutines, was %d", after, before)
	}
	if err := pool.Write(0, make([]byte, pool.BlockSize())); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("after a write: %d goroutines, was %d", after, before)
	}
}

// TestPoolConcurrentClients hammers a pool from many goroutines —
// overlapping reads, disjoint writes, stats polls — and verifies every
// writer's blocks read back intact. Run under -race this also pins the
// per-shard lock discipline. Besides the single-block clients, spanning
// clients write ranges that straddle two metadata groups, so one op
// takes two shard locks in turn while other clients contend for both.
func TestPoolConcurrentClients(t *testing.T) {
	cfg := poolConfig()
	pool, err := NewPool(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	bs := int64(cfg.BlockSize)
	blocks := pool.DataSize() / bs
	const clients = 8
	const perClient = 64
	const spanning = 4
	group := pool.GroupBytes()
	groups := pool.DataSize() / group

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := splitmix(1000 + c)
			for i := 0; i < perClient; i++ {
				// Each client owns the blocks congruent to it mod clients.
				blk := (int64(rng.next()%uint64(blocks))/clients*clients + int64(c)) % blocks * bs
				if off := blk % group; off == 0 || off == group-bs {
					continue // a group's edge blocks belong to the spanning clients
				}
				data := make([]byte, bs)
				for j := range data {
					data[j] = byte(c)
				}
				if err := pool.Write(blk, data); err != nil {
					t.Errorf("client %d: write: %v", c, err)
					return
				}
				got, err := pool.Read(blk, int(bs))
				if err != nil {
					t.Errorf("client %d: read: %v", c, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("client %d: block %d corrupted", c, blk)
					return
				}
				if i%16 == 0 {
					if _, err := pool.Stats(); err != nil {
						t.Errorf("client %d: stats: %v", c, err)
						return
					}
				}
			}
		}(c)
	}
	for c := 0; c < spanning; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := splitmix(2000 + c)
			for i := 0; i < perClient; i++ {
				// Each spanning client owns the last block of the groups
				// congruent to it mod spanning and the first block of the
				// next group — blocks the single-block clients never touch
				// — and writes the two as one range across the boundary.
				g := int64(rng.next()%uint64((groups-1)/spanning))*spanning + int64(c)
				addr := (g+1)*group - bs
				data := make([]byte, 2*bs)
				for j := range data {
					data[j] = byte(100 + c + j)
				}
				if err := pool.Write(addr, data); err != nil {
					t.Errorf("spanning client %d: write: %v", c, err)
					return
				}
				got, err := pool.Read(addr, len(data))
				if err != nil {
					t.Errorf("spanning client %d: read: %v", c, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("spanning client %d: range at %d corrupted", c, addr)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := pool.VerifyCrashConsistency(); err != nil {
		t.Fatalf("crash consistency after concurrent load: %v", err)
	}
}

// TestPoolErrors pins the error surface: out-of-range accesses, bad
// batch requests, bad shard geometry, and crash-mask mismatches.
func TestPoolErrors(t *testing.T) {
	cfg := poolConfig()
	pool, err := NewPool(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(pool.DataSize(), []byte{1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: %v, want ErrOutOfRange", err)
	}
	if err := pool.PersistBatch([]WriteReq{{Addr: 1, Data: make([]byte, cfg.BlockSize)}}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("unaligned batch: %v, want ErrOutOfRange", err)
	}
	if _, err := pool.CrashShards([]bool{true}); err == nil {
		t.Fatal("short crash mask must be rejected")
	}
	if _, err := pool.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Shutdown(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("double shutdown: %v, want ErrCrashed", err)
	}
	if _, err := NewPool(cfg, 0); err == nil {
		t.Fatal("zero shards must be rejected")
	}
}

// TestPoolThroughputScales measures real wall-clock gain of sharding.
// Like the parallel-recovery twin it needs hardware parallelism, so it
// skips on single-CPU runners; BENCH.json records the scaling (or the
// documented parity overhead) either way.
func TestPoolThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("needs >= 4 CPUs, have GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	}
	cfg := poolConfig()
	bs := int64(cfg.BlockSize)
	const rounds = 40
	const batch = 256

	run := func(shards int) time.Duration {
		pool, err := NewPool(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Shutdown()
		reqs := make([]WriteReq, batch)
		payload := make([]byte, bs)
		blocks := pool.DataSize() / bs
		rng := splitmix(99)
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			for r := 0; r < rounds; r++ {
				for j := range reqs {
					reqs[j] = WriteReq{Addr: int64(rng.next()%uint64(blocks)) * bs, Data: payload}
				}
				if err := pool.PersistBatch(reqs); err != nil {
					t.Fatal(err)
				}
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	one := run(1)
	four := run(4)
	if four > one*3/2 {
		t.Fatalf("4-shard pool much slower than 1-shard: %v vs %v", four, one)
	}
	t.Logf("1-shard=%v 4-shard=%v speedup=%.2fx", one, four, float64(one)/float64(four))
}

// TestPoolShardStatsSum checks the pooled snapshot is exactly the sum of
// the per-shard snapshots with Cycles as the shard maximum.
func TestPoolShardStatsSum(t *testing.T) {
	cfg := poolConfig()
	pool, err := NewPool(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	driveOps(t, 3, pool.DataSize(), int64(cfg.BlockSize), pool.Write, pool.PersistBatch)

	var sum Stats
	var makespan int64
	for i := 0; i < pool.Shards(); i++ {
		st, err := pool.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles > makespan {
			makespan = st.Cycles
		}
		sum = sum.Add(st)
	}
	sum.Cycles = makespan
	pooled, err := pool.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pooled != sum {
		t.Fatalf("pooled stats are not the shard sum:\npooled: %+v\nsum:    %+v", pooled, sum)
	}
	if pooled.TotalWrites() == 0 {
		t.Fatal("pool did no work")
	}
	info := pool.SchemeInfo()
	if info.Name != cfg.Scheme.String() {
		t.Fatalf("SchemeInfo name %q, want %q", info.Name, cfg.Scheme.String())
	}
	_ = fmt.Sprintf("%v", info) // SchemeInfo must be printable in serve banners
}
