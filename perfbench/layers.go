package main

import (
	"fmt"
	"runtime"
	"time"

	"nvcaracal"
	"nvcaracal/internal/arena"
	"nvcaracal/internal/index"
	"nvcaracal/internal/nvm"
	"nvcaracal/internal/pmem"
	"nvcaracal/internal/wal"
)

// cell is the cost of one operation of a layer the engine calls internally,
// timed by calling the layer directly.
type cell struct {
	ns     float64 // mean wall time per operation
	allocs float64 // heap allocations per operation
}

// measure runs op n times and returns its mean cost and allocations.
func measure(n int, op func(i int)) cell {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return cell{ns: float64(d) / float64(n), allocs: float64(after.Mallocs-before.Mallocs) / float64(n)}
}

// layerCells times the index, arena, pmem and wal layers with the
// workload's own key, size and input mix: keys come from the workload's
// load batches and from a sample of the measured window's transactions,
// log records from that sample, value sizes from the spec. pmem and wal
// run on a device of their own, apart from the measured database.
func layerCells(sp *spec, sc scale, sample []*nvcaracal.Txn) (map[string]cell, error) {
	var loadKeys []index.Key
	for _, b := range sp.load() {
		for _, t := range b {
			for _, op := range t.Ops {
				loadKeys = append(loadKeys, index.Key{Table: op.Table, ID: op.Key})
			}
		}
	}
	var runKeys []index.Key
	recs := make([]wal.Record, len(sample))
	for i, t := range sample {
		recs[i] = wal.Record{Type: t.TypeID, Data: t.Input}
		for _, op := range t.Ops {
			runKeys = append(runKeys, index.Key{Table: op.Table, ID: op.Key})
		}
	}
	cfg := sp.cfg

	cells := make(map[string]cell)
	shards := 16 * cfg.Cores
	idx := index.New[*int64](shards)
	v := new(int64)
	cells["index.put"] = measure(len(loadKeys), func(i int) { idx.Put(loadKeys[i], v) })
	cells["index.get"] = measure(4*len(runKeys), func(i int) { idx.Get(runKeys[i%len(runKeys)]) })

	// The arena serves one epoch's intermediate versions, then resets.
	ar := arena.New()
	perEpoch := sc.epochTxns * 10
	cells["arena.alloc"] = measure(20*perEpoch, func(i int) {
		if i%perEpoch == 0 {
			ar.Reset()
		}
		ar.Alloc(sp.valueSizes[i%len(sp.valueSizes)])
	})

	// pmem and wal run against a device with the benchmark's latency model,
	// laid out like the workload's database.
	l := pmem.DefaultLayout(1, int64(sc.epochTxns)*4, 64)
	l.RowSize = cfg.RowSize
	l.LogBytes = cfg.LogBytes
	if err := l.Finalize(); err != nil {
		return nil, err
	}
	dev := nvm.New(l.TotalBytes(), nvm.WithLatency(readLatency, writeLatency), nvm.WithFenceLatency(fenceLatency))
	if err := pmem.Format(dev, l); err != nil {
		return nil, err
	}
	pool := pmem.RowPool(dev, l, 0)
	// Each epoch allocates epochTxns slots and frees the ones the previous
	// epoch allocated, so the free ring turns over like a churning table.
	slots := make([]int64, sc.epochTxns)
	var allocErr error
	epoch := uint64(0)
	checkpoint := func() {
		epoch++
		pool.Checkpoint(epoch)
		dev.Fence()
		pool.Checkpointed()
	}
	cells["pmem.alloc"] = measure(20*sc.epochTxns, func(i int) {
		j := i % sc.epochTxns
		if j == 0 && i > 0 {
			checkpoint()
		}
		if i >= sc.epochTxns {
			pool.Free(slots[j])
		}
		off, err := pool.Alloc()
		if err != nil && allocErr == nil {
			allocErr = err
		}
		slots[j] = off
	})
	if allocErr != nil {
		return nil, fmt.Errorf("pmem cell: %w", allocErr)
	}
	// A checkpoint after an epoch's worth of frees, as the engine's persist
	// phase does: ring flush, control line, fence, barrier release. Only the
	// checkpoint itself is timed.
	var ckpt cell
	const ckpts = 20
	for i := 0; i < ckpts; i++ {
		for j, off := range slots {
			pool.Free(off)
			if slots[j], allocErr = pool.Alloc(); allocErr != nil {
				return nil, fmt.Errorf("pmem cell: %w", allocErr)
			}
		}
		c := measure(1, func(int) { checkpoint() })
		ckpt.ns += c.ns / ckpts
		ckpt.allocs += c.allocs / ckpts
	}
	cells["pmem.checkpoint"] = ckpt

	log := wal.New(dev, l.LogOff(), l.LogCap())
	var walErr error
	cells["wal.write_epoch"] = measure(20, func(i int) {
		if err := log.WriteEpochNoFence(uint64(i+1), recs); err != nil && walErr == nil {
			walErr = err
		}
	})
	if walErr != nil {
		return nil, fmt.Errorf("wal cell: %w", walErr)
	}
	return cells, nil
}
