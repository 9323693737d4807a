// Package pmem lays out the simulated NVMM region and implements the
// paper's persistent allocators: per-core bump allocators with ring-buffer
// free lists whose control offsets are checkpointed at epoch granularity
// (Figure 4 of the paper), so that a crash reverts all allocations and
// revertible frees of the in-flight epoch.
package pmem

import (
	"errors"
	"fmt"

	"nvcaracal/internal/nvm"
	"nvcaracal/internal/obs"
)

// Magic identifies a formatted NVCaracal region.
const Magic = uint64(0x4e56434152414341) // "NVCARACA"

// LayoutVersion guards against attaching to an incompatible format.
// Version 5 widened free-ring entries from 8 to 16 bytes (offset + stamp)
// and retired the pool control line's current-tail stage slots. Version 6
// split the input-log region into two epoch-parity slots so a pipelined
// epoch can serialize its inputs while the previous epoch's checkpoint is
// still committing.
const LayoutVersion = uint64(6)

const line = int64(nvm.LineSize)

// Layout describes how the NVMM region is carved into the header, epoch
// record, TPC-C counter slots, the input-log region, and the per-core
// persistent row and value pools. All offsets are line-aligned.
type Layout struct {
	// Parameters (persisted in the header and validated on Attach).
	Cores         int
	RowSize       int64 // bytes per persistent row (fixed, default 256)
	RowsPerCore   int64 // row pool capacity per core
	ValueSize     int64 // bytes per persistent value slot (fixed, default 1024)
	ValuesPerCore int64 // value pool capacity per core (per size class)
	// ValueSizes optionally adds further value size classes beyond
	// ValueSize, realizing §5.5's "one pool for each power of two size"
	// extension. Each class gets its own per-core pool of ValuesPerCore
	// slots. Sorted ascending; ValueSize is appended automatically if not
	// listed. At most 6 classes.
	ValueSizes []int64
	RingCap    int64 // free-list ring entries per pool
	LogBytes   int64 // input-log region size
	Counters   int64 // persistent counter slots (e.g. TPC-C order ids)
	// ScratchPerCore sizes the per-core NVMM scratch arenas used by the
	// all-NVMM and hybrid baseline modes to store transient versions in
	// NVMM. Zero for the NVCaracal design, which keeps them in DRAM.
	ScratchPerCore int64
	// IndexLogBytes sizes the optional persistent index journal (the
	// paper's §7 extension: batched index updates persisted at epoch
	// granularity so recovery can skip the full row scan). Zero disables
	// the journal.
	IndexLogBytes int64

	// Computed offsets.
	headerOff  int64
	epochOff   int64
	counterOff int64
	logOff     int64
	rowCtlOff  []int64
	rowRingOff []int64
	rowDataOff []int64
	valClasses []int64   // resolved ascending size classes
	valCtlOff  [][]int64 // [class][core]
	valRingOff [][]int64
	valDataOff [][]int64
	scratchOff []int64
	idxLogOff  int64
	total      int64
}

func alignUp(x int64) int64 { return (x + line - 1) / line * line }

// DefaultLayout returns a layout with the paper's default row (256 B) and
// value (1024 B) sizes, sized for the given per-core capacities.
func DefaultLayout(cores int, rowsPerCore, valuesPerCore int64) Layout {
	l := Layout{
		Cores:         cores,
		RowSize:       256,
		RowsPerCore:   rowsPerCore,
		ValueSize:     1024,
		ValuesPerCore: valuesPerCore,
		RingCap:       rowsPerCore + valuesPerCore + 1024,
		LogBytes:      8 << 20,
		Counters:      64,
	}
	l.compute()
	return l
}

// Finalize validates parameters and computes all region offsets. It must be
// called after manual construction and before use.
func (l *Layout) Finalize() error {
	if l.Cores <= 0 {
		return errors.New("pmem: layout needs at least one core")
	}
	if l.RowSize < 64 || l.RowSize%line != 0 {
		return fmt.Errorf("pmem: row size %d must be a positive multiple of %d", l.RowSize, line)
	}
	if l.ValueSize <= 0 {
		return fmt.Errorf("pmem: value size %d must be positive", l.ValueSize)
	}
	if l.RowsPerCore <= 0 || l.ValuesPerCore <= 0 {
		return errors.New("pmem: pool capacities must be positive")
	}
	if l.RingCap <= 0 {
		return errors.New("pmem: ring capacity must be positive")
	}
	if l.LogBytes < 4096 {
		return errors.New("pmem: log region too small")
	}
	if l.Counters < 0 {
		return errors.New("pmem: negative counter count")
	}
	if l.ScratchPerCore < 0 {
		return errors.New("pmem: negative scratch size")
	}
	if len(l.ValueSizes) > 5 {
		return errors.New("pmem: at most 6 value size classes")
	}
	for _, vs := range l.ValueSizes {
		if vs <= 0 {
			return errors.New("pmem: non-positive value size class")
		}
	}
	if l.IndexLogBytes < 0 {
		return errors.New("pmem: negative index log size")
	}
	if l.IndexLogBytes > 0 && l.IndexLogBytes < 4096 {
		return errors.New("pmem: index log too small (min 4096)")
	}
	l.compute()
	return nil
}

// resolveValueClasses merges ValueSize and ValueSizes into the sorted,
// deduplicated class list.
func (l *Layout) resolveValueClasses() {
	classes := append([]int64{}, l.ValueSizes...)
	found := false
	for _, c := range classes {
		if c == l.ValueSize {
			found = true
		}
	}
	if !found {
		classes = append(classes, l.ValueSize)
	}
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	dedup := classes[:0]
	var prev int64 = -1
	for _, c := range classes {
		if c != prev {
			dedup = append(dedup, c)
			prev = c
		}
	}
	l.valClasses = dedup
}

func (l *Layout) compute() {
	l.resolveValueClasses()
	off := int64(0)
	l.headerOff = off
	off += 2 * line // magic/version + params (two lines)
	l.epochOff = off
	off += line // epoch record gets its own line
	l.counterOff = off
	off += alignUp(l.Counters * counterStride)
	l.logOff = off
	off += alignUp(l.LogBytes)

	l.rowCtlOff = make([]int64, l.Cores)
	l.rowRingOff = make([]int64, l.Cores)
	l.rowDataOff = make([]int64, l.Cores)
	for c := 0; c < l.Cores; c++ {
		l.rowCtlOff[c] = off
		off += line
		l.rowRingOff[c] = off
		off += alignUp(l.RingCap * ringStride)
		l.rowDataOff[c] = off
		off += alignUp(l.RowsPerCore * l.RowSize)
	}
	l.valCtlOff = make([][]int64, len(l.valClasses))
	l.valRingOff = make([][]int64, len(l.valClasses))
	l.valDataOff = make([][]int64, len(l.valClasses))
	for k, size := range l.valClasses {
		l.valCtlOff[k] = make([]int64, l.Cores)
		l.valRingOff[k] = make([]int64, l.Cores)
		l.valDataOff[k] = make([]int64, l.Cores)
		for c := 0; c < l.Cores; c++ {
			l.valCtlOff[k][c] = off
			off += line
			l.valRingOff[k][c] = off
			off += alignUp(l.RingCap * ringStride)
			l.valDataOff[k][c] = off
			off += alignUp(l.ValuesPerCore * size)
		}
	}
	l.scratchOff = make([]int64, l.Cores)
	for c := 0; c < l.Cores; c++ {
		l.scratchOff[c] = off
		off += alignUp(l.ScratchPerCore)
	}
	l.idxLogOff = off
	off += alignUp(l.IndexLogBytes)
	l.total = off
}

// TotalBytes returns the device size this layout requires.
func (l *Layout) TotalBytes() int64 { return l.total }

// LogOff returns the offset of the input-log region.
func (l *Layout) LogOff() int64 { return l.logOff }

// LogCap returns the usable size of the input-log region.
func (l *Layout) LogCap() int64 { return l.LogBytes }

// CounterOff returns the offset of persistent counter i's parity pair.
func (l *Layout) CounterOff(i int64) int64 {
	if i < 0 || i >= l.Counters {
		panic(fmt.Sprintf("pmem: counter %d out of range", i))
	}
	return l.counterOff + i*counterStride
}

// RowDataOff returns the base offset of core c's persistent row region.
func (l *Layout) RowDataOff(c int) int64 { return l.rowDataOff[c] }

// ScratchOff returns the base offset of core c's NVMM scratch arena.
func (l *Layout) ScratchOff(c int) int64 { return l.scratchOff[c] }

// ValDataOff returns the base offset of core c's persistent value region
// for size class k.
func (l *Layout) ValDataOff(k, c int) int64 { return l.valDataOff[k][c] }

// ValueClasses returns the resolved ascending value size classes.
func (l *Layout) ValueClasses() []int64 { return l.valClasses }

// ValueClassFor returns the index of the smallest class fitting n bytes,
// or -1 if none fits.
func (l *Layout) ValueClassFor(n int64) int {
	for k, size := range l.valClasses {
		if n <= size {
			return k
		}
	}
	return -1
}

// ValueClassOfOffset returns the size class whose data regions contain the
// given device offset, or -1 if the offset is not in any value region.
func (l *Layout) ValueClassOfOffset(off int64) int {
	for k, size := range l.valClasses {
		regionLen := alignUp(l.ValuesPerCore * size)
		for c := 0; c < l.Cores; c++ {
			base := l.valDataOff[k][c]
			if off >= base && off < base+regionLen {
				return k
			}
		}
	}
	return -1
}

// MaxValueSize returns the largest value size class.
func (l *Layout) MaxValueSize() int64 {
	return l.valClasses[len(l.valClasses)-1]
}

// Regions enumerates the layout's named regions for the attribution
// layer's spatial heatmap (obs.Attrib.SetRegions). Per-core regions share
// a name — the exporter merges them — and each pool's control line and
// free ring are one region, since both are allocator state.
func (l *Layout) Regions() []obs.Region {
	if l.total == 0 {
		l.compute()
	}
	rs := []obs.Region{
		{Name: "header", Off: l.headerOff, Len: 2 * line},
		{Name: "epoch-record", Off: l.epochOff, Len: line},
	}
	if l.Counters > 0 {
		rs = append(rs, obs.Region{Name: "counters", Off: l.counterOff, Len: alignUp(l.Counters * counterStride)})
	}
	rs = append(rs, obs.Region{Name: "wal", Off: l.logOff, Len: alignUp(l.LogBytes)})
	for c := 0; c < l.Cores; c++ {
		rs = append(rs,
			obs.Region{Name: "row-free-ring", Off: l.rowCtlOff[c], Len: line + alignUp(l.RingCap*ringStride)},
			obs.Region{Name: "row-heap", Off: l.rowDataOff[c], Len: alignUp(l.RowsPerCore * l.RowSize)},
		)
	}
	for k, size := range l.valClasses {
		for c := 0; c < l.Cores; c++ {
			rs = append(rs,
				obs.Region{Name: "val-free-ring", Off: l.valCtlOff[k][c], Len: line + alignUp(l.RingCap*ringStride)},
				obs.Region{Name: "val-heap", Off: l.valDataOff[k][c], Len: alignUp(l.ValuesPerCore * size)},
			)
		}
	}
	if l.ScratchPerCore > 0 {
		for c := 0; c < l.Cores; c++ {
			rs = append(rs, obs.Region{Name: "scratch", Off: l.scratchOff[c], Len: alignUp(l.ScratchPerCore)})
		}
	}
	if l.IndexLogBytes > 0 {
		rs = append(rs, obs.Region{Name: "index-journal", Off: l.idxLogOff, Len: alignUp(l.IndexLogBytes)})
	}
	return rs
}

// header field slots (within headerOff region).
const (
	hdrMagic   = 0
	hdrVersion = 8
	// second line: parameters
	hdrCores    = 64
	hdrRowSize  = 72
	hdrRowsPC   = 80
	hdrValSize  = 88
	hdrValsPC   = 96
	hdrRingCap  = 104
	hdrLogBytes = 112
	hdrCounters = 120
	hdrScratch  = 16 // first line, after magic/version
	hdrIdxLog   = 24 // first line
	hdrValClass = 32 // first line: FNV of the value-class list
)

// Format writes the header and zeroes all control state, preparing a device
// for first use. The epoch record is set to 0: no epoch has been
// checkpointed yet.
func Format(dev *nvm.Device, l Layout) error {
	if l.total == 0 {
		l.compute()
	}
	if dev.Size() < l.total {
		return fmt.Errorf("pmem: device %d bytes, layout needs %d", dev.Size(), l.total)
	}
	// Formatting is allocator traffic for attribution purposes.
	td := dev.Tag(obs.CauseAlloc)
	td.Store64(l.headerOff+hdrMagic, Magic)
	td.Store64(l.headerOff+hdrVersion, LayoutVersion)
	td.Store64(l.headerOff+hdrScratch, uint64(l.ScratchPerCore))
	td.Store64(l.headerOff+hdrIdxLog, uint64(l.IndexLogBytes))
	td.Store64(l.headerOff+hdrValClass, l.valueClassHash())
	td.Store64(l.headerOff+hdrCores, uint64(l.Cores))
	td.Store64(l.headerOff+hdrRowSize, uint64(l.RowSize))
	td.Store64(l.headerOff+hdrRowsPC, uint64(l.RowsPerCore))
	td.Store64(l.headerOff+hdrValSize, uint64(l.ValueSize))
	td.Store64(l.headerOff+hdrValsPC, uint64(l.ValuesPerCore))
	td.Store64(l.headerOff+hdrRingCap, uint64(l.RingCap))
	td.Store64(l.headerOff+hdrLogBytes, uint64(l.LogBytes))
	td.Store64(l.headerOff+hdrCounters, uint64(l.Counters))
	td.Zero(l.epochOff, line)
	if l.Counters > 0 {
		td.Zero(l.counterOff, alignUp(l.Counters*counterStride))
	}
	// Log slot headers only (both parity slots); payload is length-guarded.
	td.Zero(l.logOff, line)
	td.Zero(l.logOff+l.LogBytes/2/line*line, line)
	for c := 0; c < l.Cores; c++ {
		td.Zero(l.rowCtlOff[c], line)
	}
	for k := range l.valCtlOff {
		for c := 0; c < l.Cores; c++ {
			td.Zero(l.valCtlOff[k][c], line)
		}
	}
	if l.IndexLogBytes > 0 {
		td.Zero(l.idxLogOff, line)
	}
	// One vectored persist: flush every initialized region, then a single
	// fence. Formatting used to fence per region — dozens of fences for a
	// many-core layout — for no ordering benefit, since nothing is valid
	// until the whole format is durable anyway.
	ranges := []nvm.Range{
		{Off: l.headerOff, N: 2 * line},
		{Off: l.epochOff, N: line},
		{Off: l.logOff, N: line},
		{Off: l.logOff + l.LogBytes/2/line*line, N: line},
	}
	if l.Counters > 0 {
		ranges = append(ranges, nvm.Range{Off: l.counterOff, N: alignUp(l.Counters * counterStride)})
	}
	for c := 0; c < l.Cores; c++ {
		ranges = append(ranges, nvm.Range{Off: l.rowCtlOff[c], N: line})
	}
	for k := range l.valCtlOff {
		for c := 0; c < l.Cores; c++ {
			ranges = append(ranges, nvm.Range{Off: l.valCtlOff[k][c], N: line})
		}
	}
	if l.IndexLogBytes > 0 {
		ranges = append(ranges, nvm.Range{Off: l.idxLogOff, N: line})
	}
	td.PersistRange(ranges...)
	return nil
}

// Attach validates that the device was formatted with a compatible layout
// and returns the layout reconstructed from the header.
func Attach(dev *nvm.Device, want Layout) (Layout, error) {
	if want.total == 0 {
		want.compute()
	}
	if dev.Load64(want.headerOff+hdrMagic) != Magic {
		return Layout{}, errors.New("pmem: device not formatted (bad magic)")
	}
	if v := dev.Load64(want.headerOff + hdrVersion); v != LayoutVersion {
		return Layout{}, fmt.Errorf("pmem: layout version %d, want %d", v, LayoutVersion)
	}
	check := func(off int64, got uint64, name string, want uint64) error {
		if got != want {
			return fmt.Errorf("pmem: header %s = %d, attach config says %d", name, got, want)
		}
		_ = off
		return nil
	}
	for _, c := range []struct {
		off  int64
		name string
		want uint64
	}{
		{hdrCores, "cores", uint64(want.Cores)},
		{hdrRowSize, "rowSize", uint64(want.RowSize)},
		{hdrRowsPC, "rowsPerCore", uint64(want.RowsPerCore)},
		{hdrValSize, "valueSize", uint64(want.ValueSize)},
		{hdrValsPC, "valuesPerCore", uint64(want.ValuesPerCore)},
		{hdrRingCap, "ringCap", uint64(want.RingCap)},
		{hdrLogBytes, "logBytes", uint64(want.LogBytes)},
		{hdrCounters, "counters", uint64(want.Counters)},
		{hdrScratch, "scratchPerCore", uint64(want.ScratchPerCore)},
		{hdrIdxLog, "indexLogBytes", uint64(want.IndexLogBytes)},
		{hdrValClass, "valueClasses", want.valueClassHash()},
	} {
		if err := check(c.off, dev.Load64(want.headerOff+c.off), c.name, c.want); err != nil {
			return Layout{}, err
		}
	}
	return want, nil
}

// valueClassHash digests the resolved class list for header validation.
func (l *Layout) valueClassHash() uint64 {
	h := idxFnvOffset
	for _, c := range l.valClasses {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(c >> (8 * i)))
			h *= idxFnvPrime
		}
	}
	return h
}

// EpochRecord manages the persistent checkpointed-epoch number.
type EpochRecord struct {
	dev *nvm.Device
	off int64
}

// NewEpochRecord returns the epoch record for a formatted device.
func NewEpochRecord(dev *nvm.Device, l Layout) *EpochRecord {
	return &EpochRecord{dev: dev, off: l.epochOff}
}

// Load returns the last checkpointed epoch (0 if none).
func (e *EpochRecord) Load() uint64 { return e.dev.Load64(e.off) }

// Store persists the checkpointed epoch number. Per Algorithm 1, the caller
// must already have fenced the epoch's data writes; Store issues its own
// trailing persist so the record itself is durable on return. The record
// commits the epoch's persist phase, so its traffic is attributed there.
func (e *EpochRecord) Store(epoch uint64) {
	td := e.dev.Tag(obs.CausePersistFinal)
	td.Store64(e.off, epoch)
	td.Persist(e.off, 8)
}

// counterStride is the per-counter footprint: two parity slots, so the
// checkpoint of epoch e never overwrites the slot recovery would read if
// the crash lands before e's epoch record commits.
const counterStride = 16

// Counter is a persistent 64-bit counter (used for TPC-C order ids, which
// Caracal generates non-deterministically and therefore must persist at
// epoch boundaries). Like the pool control offsets, each counter keeps two
// parity slots indexed by epoch: the checkpoint of epoch e writes slot
// e%2 and recovery reads slot ckpt%2. A single slot would be unsound —
// the checkpoint flushes counters before the epoch record commits, so a
// crash in between can leave post-epoch values durable while the epoch
// itself is replayed, applying every counter increment twice.
//
// The parity slots also make unchanged counters free: Checkpoint skips the
// store and the write-back when the slot already holds the value (see
// slotCache).
type Counter struct {
	dev *nvm.Device
	off int64

	cache slotCache[uint64]
}

// NewCounter returns counter i.
func NewCounter(dev *nvm.Device, l Layout, i int64) *Counter {
	return &Counter{dev: dev, off: l.CounterOff(i)}
}

// Load reads the value checkpointed at the given epoch.
func (c *Counter) Load(epoch uint64) uint64 {
	return c.dev.Load64(c.off + int64(epoch%2)*8)
}

// Checkpoint stores v into epoch's parity slot and flushes it, or does
// nothing when this Counter already stored v into that slot at an earlier
// checkpoint. The caller's fence makes the write durable.
func (c *Counter) Checkpoint(v uint64, epoch uint64) {
	if c.cache.holds(epoch, v) {
		return
	}
	c.dev.Store64(c.off+int64(epoch%2)*8, v)
	c.dev.Flush(c.off, counterStride)
	c.cache.put(epoch, v)
}

// slotCache remembers, per parity, the value this process last stored into
// a dual-parity checkpoint slot, so a checkpoint whose value did not change
// skips the store and the line write-back. The skip is crash-safe because
// of the parity discipline: the slot was written (and fenced) by the
// checkpoint of epoch-2 or earlier, nothing has written it since, and
// recovery after a crash of epoch e reads slot (e-1)%2, never the one e
// would have rewritten. The zero value is invalid for both parities, so
// the first two checkpoints of a freshly opened or recovered process write
// everything.
type slotCache[T comparable] struct {
	val   [2]T
	valid [2]bool
}

// holds reports whether epoch's parity slot already holds v.
func (c *slotCache[T]) holds(epoch uint64, v T) bool {
	p := epoch % 2
	return c.valid[p] && c.val[p] == v
}

// put records that v was stored into epoch's parity slot.
func (c *slotCache[T]) put(epoch uint64, v T) {
	p := epoch % 2
	c.val[p], c.valid[p] = v, true
}
