package main

import (
	"errors"
	"fmt"

	"nvcaracal"
)

// logged is one transaction exactly as the engine logs it: its type and its
// serialized input. The reference database is rebuilt from these alone.
type logged struct {
	typ   uint16
	input []byte
}

// epochLog is one epoch's transactions in serial order.
type epochLog struct {
	epoch uint64
	txns  []logged
}

// history is every epoch a run executed, in order: the load, the warm-up,
// the measured window, and the crash phase.
type history struct {
	epochs []epochLog
}

func (h *history) add(epoch uint64, batch []*nvcaracal.Txn) {
	txns := make([]logged, len(batch))
	for i, t := range batch {
		txns[i] = logged{typ: t.TypeID, input: t.Input}
	}
	h.epochs = append(h.epochs, epochLog{epoch: epoch, txns: txns})
}

func (h *history) last() uint64 {
	if len(h.epochs) == 0 {
		return 0
	}
	return h.epochs[len(h.epochs)-1].epoch
}

// reference replays the history hand-batched on a fresh database at DRAM
// speed, rebuilding every transaction through the Registry decoders, and
// returns its LogicalDigest.
func reference(sp *spec, h *history) (uint64, error) {
	cfg := sp.cfg
	cfg.NVMMReadLatency, cfg.NVMMWriteLatency, cfg.NVMMFenceLatency = 0, 0, 0
	cfg.Obs = nil
	db, err := nvcaracal.Open(cfg)
	if err != nil {
		return 0, fmt.Errorf("reference: open: %w", err)
	}
	for _, el := range h.epochs {
		batch := make([]*nvcaracal.Txn, len(el.txns))
		for i, l := range el.txns {
			t, err := cfg.Registry.Decode(l.typ, l.input, db)
			if err != nil {
				return 0, fmt.Errorf("reference: decode epoch %d txn %d: %w", el.epoch, i, err)
			}
			batch[i] = t
		}
		res, err := db.RunEpoch(batch)
		if err != nil {
			return 0, fmt.Errorf("reference: epoch %d: %w", el.epoch, err)
		}
		if res.Epoch != el.epoch {
			return 0, fmt.Errorf("reference: replayed epoch %d as %d", el.epoch, res.Epoch)
		}
	}
	return db.LogicalDigest(), nil
}

// errMismatch marks a failed output check, as opposed to an error that
// stopped the run.
var errMismatch = errors.New("output check failed")

// verify compares the recovered database's digest, taken at the given
// epoch, with the crash-free reference replay of the same history.
func verify(sp *spec, h *history, epoch, digest uint64) error {
	if last := h.last(); epoch != last {
		return fmt.Errorf("%w: recovered to epoch %d, the history ends at %d", errMismatch, epoch, last)
	}
	want, err := reference(sp, h)
	if err != nil {
		return err
	}
	if digest != want {
		return fmt.Errorf("%w: recovered digest at epoch %d is %#x, crash-free reference %#x",
			errMismatch, epoch, digest, want)
	}
	return nil
}
