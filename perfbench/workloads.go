package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"nvcaracal"
	"nvcaracal/internal/workload/smallbank"
	"nvcaracal/internal/workload/tpcc"
	"nvcaracal/internal/workload/ycsb"
)

// The device model of every workload: the repository's quick-scale NVMM
// latencies (internal/bench.QuickScale), charged per line and per fence.
const (
	readLatency  = 60 * time.Nanosecond
	writeLatency = 250 * time.Nanosecond
	fenceLatency = 300 * time.Nanosecond
)

// cacheK is the cached-version eviction horizon in epochs (the paper's
// default). Closed-loop timing starts only after this many warm-up epochs,
// so the cache has reached its steady state.
const cacheK = 20

// crashes is how many crash-and-recover cycles a run makes; recovery_s is
// the median.
const crashes = 3

// scale holds every size the benchmark runs at. fullScale is what the
// command measures; the self-test shrinks it to run in well under a second.
type scale struct {
	epochTxns  int // transactions per hand-batched epoch
	warmEpochs int // hand-batched warm-up epochs before timing
	setups     int // set-ups per run; setup_s is their median
	// epochsPerSecond sets the closed loops' fixed amount of work: a window
	// of --seconds runs seconds × epochsPerSecond epochs, which takes about
	// --seconds on the 2-CPU reference box.
	epochsPerSecond float64

	ycsbRows int

	sbCustomers int
	sbRate      float64       // offered load of the open loop, txn/s
	sbMaxBatch  int           // Submitter size cap
	sbMaxDelay  time.Duration // Submitter latency deadline

	tpccWarehouses int
	tpccCustomers  int // per district
	tpccItems      int
}

// windowEpochs is the number of epochs a closed-loop window runs.
func (sc scale) windowEpochs(window time.Duration) int {
	return max(int(math.Ceil(window.Seconds()*sc.epochsPerSecond)), 1)
}

func fullScale() scale {
	return scale{
		epochTxns:       1000,
		warmEpochs:      cacheK,
		setups:          3,
		epochsPerSecond: 10,
		ycsbRows:        200_000,
		sbCustomers:     30_000,
		sbRate:          10_000,
		sbMaxBatch:      1000,
		sbMaxDelay:      2 * time.Millisecond,
		tpccWarehouses:  8,
		tpccCustomers:   60,
		tpccItems:       500,
	}
}

// spec is one workload: the database it runs against and its client side.
// Everything in it is built from the workload packages; the engine only
// ever receives the generated transactions.
type spec struct {
	openLoop bool
	cfg      nvcaracal.Config // NVMM-speed config, Registry included
	load     func() [][]*nvcaracal.Txn
	gen      func(rng *rand.Rand, db *nvcaracal.DB, n int) []*nvcaracal.Txn
	// valueSizes are the payload sizes the workload writes, used by the
	// arena layer cell.
	valueSizes []int
}

var workloadNames = []string{"ycsb-rmw", "smallbank-serve", "tpcc-recover"}

func newSpec(name string, sc scale, window time.Duration) (*spec, error) {
	cores := runtime.NumCPU()
	reg := nvcaracal.NewRegistry()
	cfg := nvcaracal.Config{
		Cores:            cores,
		CacheK:           cacheK,
		Registry:         reg,
		LogBytes:         int64(max(sc.epochTxns, sc.sbMaxBatch))*256 + 1<<20,
		NVMMReadLatency:  readLatency,
		NVMMWriteLatency: writeLatency,
		NVMMFenceLatency: fenceLatency,
	}
	// perCore spreads a live-row estimate over the cores (the engine places
	// rows by key hash) with headroom for an uneven split.
	perCore := func(rows int64) int64 { return rows*21/20/int64(cores) + 4096 }

	switch name {
	case "ycsb-rmw":
		wc := ycsb.DefaultConfig(sc.ycsbRows)
		wc.HotOps = 4 // medium contention: 4 of 10 ops on the 256 hot rows
		w, err := ycsb.New(wc)
		if err != nil {
			return nil, err
		}
		w.Register(reg)
		// Table 4's optimal row size: both versions of a value inline.
		cfg.RowSize = alignLine(64 + 2*int64(wc.ValueSize))
		cfg.ValueSize = alignLine(int64(wc.ValueSize))
		cfg.RowsPerCore = perCore(int64(wc.Rows))
		cfg.ValuesPerCore = 4096
		return &spec{
			cfg:  cfg,
			load: func() [][]*nvcaracal.Txn { return w.LoadBatches(4 * sc.epochTxns) },
			gen: func(rng *rand.Rand, _ *nvcaracal.DB, n int) []*nvcaracal.Txn {
				return w.GenBatch(rng, n)
			},
			valueSizes: []int{wc.ValueSize},
		}, nil

	case "smallbank-serve":
		w, err := smallbank.New(smallbank.DefaultConfig(sc.sbCustomers, sc.sbCustomers/18))
		if err != nil {
			return nil, err
		}
		w.Register(reg)
		cfg.RowSize = 128 // Table 4
		cfg.ValueSize = 64
		cfg.RowsPerCore = perCore(3 * int64(sc.sbCustomers))
		cfg.ValuesPerCore = 4096
		return &spec{
			openLoop: true, cfg: cfg,
			load: func() [][]*nvcaracal.Txn { return w.LoadBatches(4 * sc.epochTxns) },
			gen: func(rng *rand.Rand, _ *nvcaracal.DB, n int) []*nvcaracal.Txn {
				return w.GenBatch(rng, n)
			},
			valueSizes: []int{8},
		}, nil

	case "tpcc-recover":
		wc := tpcc.DefaultConfig(sc.tpccWarehouses)
		wc.CustomersPerDistrict = sc.tpccCustomers
		wc.Items = sc.tpccItems
		w, err := tpcc.New(wc)
		if err != nil {
			return nil, err
		}
		w.Register(reg)
		base := int64(wc.Items + wc.Warehouses*(1+wc.Items) +
			wc.Warehouses*wc.Districts*(2+2*wc.CustomersPerDistrict))
		// NewOrder and Payment insert about 5 rows per transaction on
		// average; size the pools for 6 over every epoch a run makes: the
		// warm-up, the window, two probes, and the crash cycles with room
		// for their retries.
		epochs := sc.warmEpochs + sc.windowEpochs(window) + 2 + 3*crashes
		txns := int64(epochs) * int64(sc.epochTxns)
		cfg.RowSize = 256
		cfg.ValueSize = 256
		cfg.RowsPerCore = perCore(base + 6*txns)
		cfg.ValuesPerCore = 4096
		cfg.Counters = wc.RequiredCounters()
		cfg.RevertOnRecovery = true // TPC-C replay may issue different keys (§6.2.3)
		return &spec{
			cfg:  cfg,
			load: func() [][]*nvcaracal.Txn { return w.LoadBatches(4 * sc.epochTxns) },
			gen: func(rng *rand.Rand, db *nvcaracal.DB, n int) []*nvcaracal.Txn {
				return w.GenBatch(rng, db, n)
			},
			valueSizes: []int{8, 24, 32, 40},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// alignLine rounds n up to the 64-byte line multiple the engine requires.
func alignLine(n int64) int64 { return (n + 63) / 64 * 64 }
