package mld

import (
	"sync"
	"sync/atomic"

	"github.com/midas-hpc/midas/internal/gf"
)

// Coefficient-table store. The DP multiplies every neighbor message by
// a fingerprint coefficient hashed from (edge, level); one coefficient
// is reused against a fresh slice for every batch of every round, and
// the same (edge, level) pairs recur across all 2^k/n2 phases. Keeping
// the per-constant nibble-split tables (gf.MulTable) by coefficient
// value means each distinct constant pays its table build exactly once
// per process.
//
// The store is one flat array indexed by the coefficient itself, so it
// is bounded by the field size (2^16 pointer-free slots of 128 bytes,
// invisible to the garbage collector; untouched pages stay unmapped)
// and never evicts. A sweep fetches ~2m·(k−1) scattered tables per
// phase against a DP state that fits in cache, so the fetch is the
// axpy's dominant miss: indexing the tables directly costs one
// dependent miss where a pointer per slot cost two. A ready bitmap (one
// bit per coefficient, 8 KiB — cache-resident) says which slots are
// built. Readers do one atomic word load; first use builds the table in
// place under a mutex and then publishes the bit, so a reader that sees
// the bit also sees the finished table.

var (
	coeffTables [1 << 16]gf.MulTable
	coeffReady  [1 << 16 / 64]atomic.Uint64
	coeffMu     sync.Mutex // serializes first-use builds and bitmap writes

	coeffTables8 [1 << 8]atomic.Pointer[gf.MulTable8]
)

// CachedMulTable returns the process-wide multiplication table for c,
// building and publishing it on first use.
func CachedMulTable(c gf.Elem) *gf.MulTable {
	t := &coeffTables[c]
	word, bit := &coeffReady[c>>6], uint64(1)<<(c&63)
	if word.Load()&bit == 0 {
		coeffMu.Lock()
		if word.Load()&bit == 0 {
			t.Init(c)
			word.Store(word.Load() | bit)
		}
		coeffMu.Unlock()
	}
	return t
}

// CachedMulTable8 is CachedMulTable over GF(2^8). The field has 256
// constants, so the tables stay behind pointers: they all fit in L1/L2
// and the fetch is not a miss worth flattening.
func CachedMulTable8(c uint8) *gf.MulTable8 {
	if t := coeffTables8[c].Load(); t != nil {
		return t
	}
	t := gf.NewMulTable8(c)
	coeffTables8[c].Store(t)
	return t
}

// EdgeTable returns the cached multiplication table for
// EdgeCoeff(u, i, level); the table-building twin of EdgeCoeff for the
// batched axpy kernels.
func (a *Assignment) EdgeTable(u, i int32, level int) *gf.MulTable {
	return CachedMulTable(a.EdgeCoeff(u, i, level))
}

// MotifTable is EdgeTable for MotifCoeff(u, i, j, jp).
func (a *Assignment) MotifTable(u, i int32, j, jp int) *gf.MulTable {
	return CachedMulTable(a.MotifCoeff(u, i, j, jp))
}
