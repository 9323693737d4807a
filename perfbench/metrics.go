package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the database sees, printed by an
// untraced run. Every workload prints all of them.
var endToEnd = []metricDef{
	{"throughput_tps", "txn/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"recovery_s", "s"},
	{"setup_s", "s"},
	{"nvmm_writeback_bytes_per_txn", "B/txn"},
	{"dram_mb", "MiB"},
	{"nvmm_mb", "MiB"},
}

// perLayer are the single-layer metrics, printed by a traced run. A layer a
// workload does not drive reads 0 (for example submit.* on the closed
// loops).
var perLayer = []metricDef{
	{"submit.txns_per_epoch", "txn/epoch"},
	{"submit.epochs_per_s", "1/s"},
	{"submit.call_p99_us", "us"},
	{"submit.self_ms", "ms"},

	{"core.log_ms", "ms"},
	{"core.init_ms", "ms"},
	{"core.exec_ms", "ms"},
	{"core.sync_ms", "ms"},
	{"core.commit_ms", "ms"},
	{"core.epoch_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.transient_share", "share"},
	{"core.cache_hit_ratio", "share"},
	{"core.row_reads_per_txn", "count/txn"},
	{"core.minor_gcs_per_epoch", "count/epoch"},
	{"core.major_gcs_per_epoch", "count/epoch"},
	{"core.abort_share", "share"},

	{"nvm.line_reads_per_txn", "lines/txn"},
	{"nvm.line_writes_per_txn", "lines/txn"},
	{"nvm.writebacks_per_txn", "lines/txn"},
	{"nvm.writebacks_elided_per_txn", "lines/txn"},
	{"nvm.fences_per_epoch", "count/epoch"},
	{"nvm.lines_per_fence", "lines/fence"},
	{"nvm.charged_share", "share"},

	{"wal.bytes_per_txn", "B/txn"},
	{"wal.write_epoch_us", "us"},
	{"wal.write_epoch_allocs", "allocs/op"},

	{"pmem.row_mb", "MiB"},
	{"pmem.value_mb", "MiB"},
	{"pmem.bytes_per_live_row", "B/row"},
	{"pmem.alloc_ns", "ns"},
	{"pmem.alloc_allocs", "allocs/op"},
	{"pmem.checkpoint_us", "us"},
	{"pmem.checkpoint_allocs", "allocs/op"},

	{"index.bytes_per_row", "B/row"},
	{"index.get_ns", "ns"},
	{"index.get_allocs", "allocs/op"},
	{"index.put_ns", "ns"},
	{"index.put_allocs", "allocs/op"},

	{"arena.transient_peak_mb", "MiB"},
	{"arena.alloc_ns", "ns"},
	{"arena.alloc_allocs", "allocs/op"},

	{"recovery.load_ms", "ms"},
	{"recovery.scan_ms", "ms"},
	{"recovery.revert_ms", "ms"},
	{"recovery.replay_ms", "ms"},
	{"recovery.self_ms", "ms"},
	{"recovery.rows_scanned", "count"},
	{"recovery.rows_repaired", "count"},
	{"recovery.txns_replayed", "count"},

	{"bench.gen_late_p99_ms", "ms"},
	{"bench.gen_late_max_ms", "ms"},
	{"bench.self_ms", "ms"},
	{"bench.trace_overhead_share", "share"},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// sorting xs in place. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio guards a division whose denominator may be zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20
