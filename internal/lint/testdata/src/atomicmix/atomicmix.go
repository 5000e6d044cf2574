// Package atomicmix holds golden fixtures for the atomicmix analyzer:
// calls to the sync/atomic functions, whose words stay open to plain
// access.
package atomicmix

import "sync/atomic"

type hits struct {
	n     int64
	typed atomic.Int64
}

// bump and load are the function form: nothing stops another method
// from reading h.n plainly, racing with them.
func (h *hits) bump() {
	atomic.AddInt64(&h.n, 1) // want `atomic.AddInt64 on a plain word`
}

func (h *hits) load() int64 {
	return atomic.LoadInt64(&h.n) // want `atomic.LoadInt64 on a plain word`
}

// bumpTyped is the sanctioned shape: a typed atomic has no plain access.
func (h *hits) bumpTyped() int64 {
	return h.typed.Add(1)
}

var legacy uint32

// raiseLegacy keeps the function form behind a reasoned directive.
func raiseLegacy() {
	//lint:ignore atomicmix the word is only ever touched through sync/atomic functions, all in this file
	atomic.StoreUint32(&legacy, 1)
}
