package gf

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Per-coefficient store behind MulSlice16 and FormsOf. The DP
// multiplies every neighbor row by a fingerprint coefficient hashed from
// (edge, level); one coefficient is reused against a fresh slice for
// every batch of every round, and the same (edge, level) pairs recur
// across all 2^k/N2 phases. MulSlice16 therefore keeps its kernel's per-constant form by
// coefficient value, so each distinct constant pays its build exactly
// once per process:
//
//   - with GFNI, the 32-byte affine form of x ↦ c·x (affineMulMatrix):
//     2^16 slots of 32 bytes, 2 MiB;
//   - otherwise the 128-byte nibble tables of MulTable, 8 MiB.
//
// Each store is one flat array indexed by the coefficient itself, so it
// is bounded by the field size and never evicts. It holds no pointer,
// so the garbage collector neither scans it nor counts it toward its
// heap goal, and its untouched pages stay unmapped: a host pays only for
// the store its dispatch path uses. A sweep fetches ~2m·(k−1) scattered
// forms per phase against a DP state that fits in cache, so the fetch is
// the axpy's dominant miss: indexing the forms directly costs one
// dependent miss where a pointer per slot would cost two, and a 32-byte
// form is half a cache line where a table is two. A caller that knows
// its coefficients ahead copies a run of forms out with FormsOf and
// hands each to MulSliceForm, so the misses overlap instead of each
// stalling its own axpy (internal/mld's path and tree sweeps do).
//
// A ready bitmap (one bit per coefficient, 8 KiB, cache-resident) says
// which slots are built. Readers do one atomic word load; first use
// builds the slot in place under the store's mutex and then publishes
// the bit, so a reader that sees the bit also sees the finished slot.
var (
	affineForms [1 << 16][4]uint64
	affineReady readyBits
	lutForms    [1 << 16]MulTable
	lutReady    readyBits
)

// readyBits is one store's ready bitmap and first-use mutex.
type readyBits struct {
	word [1 << 16 / 64]atomic.Uint64
	mu   sync.Mutex // serializes first-use builds and bitmap writes
}

func (r *readyBits) built(c Elem) bool { return r.word[c>>6].Load()&(1<<(c&63)) != 0 }

// build runs fill under the mutex unless c's slot is already built,
// then publishes c's bit.
func (r *readyBits) build(c Elem, fill func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.built(c) {
		fill()
		r.word[c>>6].Store(r.word[c>>6].Load() | 1<<(c&63))
	}
}

// affineForm returns c's affine form, building it on first use.
func affineForm(c Elem) *[4]uint64 {
	if !affineReady.built(c) {
		buildAffineForm(c)
	}
	return &affineForms[c]
}

func buildAffineForm(c Elem) {
	affineReady.build(c, func() { affineMulMatrix(&affineForms[c], c) })
}

// lutForm returns c's nibble tables, building them on first use.
func lutForm(c Elem) *MulTable {
	if !lutReady.built(c) {
		lutReady.build(c, func() { lutForms[c].Init(c) })
	}
	return &lutForms[c]
}

// Form is one coefficient's axpy kernel form, as MulSliceForm takes it:
// c's 32 bytes of affine matrices, copied out of the store, where the
// CPU has GFNI, and c alone elsewhere. A form is valid under the
// dispatch it was built for, which never changes in a running process.
type Form struct{ m [4]uint64 }

// FormElems is a Form's size in field elements: FormsIn views a slab of
// n·FormElems elements as n forms.
const FormElems = 16

// FormsOf sets dst[j] to cs[j]'s form for every j, building store slots
// on first use. dst must be at least as long as cs. It is one loop over
// the run rather than a call per coefficient: the store reads are
// independent, and the loop keeps many of them in flight.
func FormsOf(dst []Form, cs []Elem) {
	dst = dst[:len(cs)]
	if !haveGFNI {
		for j, c := range cs {
			dst[j] = Form{[4]uint64{uint64(c)}}
		}
		return
	}
	for j, c := range cs {
		if !affineReady.built(c) {
			buildAffineForm(c)
		}
		dst[j].m = affineForms[c]
	}
}

// FormsIn views buf as len(buf)/FormElems forms sharing its memory, so
// form buffers can come from the same pools as []Elem DP slabs. Both
// types hold no pointers.
func FormsIn(buf []Elem) []Form {
	n := len(buf) / FormElems
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*Form)(unsafe.Pointer(&buf[0])), n)
}
