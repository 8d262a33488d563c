package mld

import (
	"sync"
	"testing"

	"github.com/midas-hpc/midas/internal/gf"
)

// TestCachedMulTableFirstUseHammer races 64 goroutines on the first
// use of the same coefficients of the flat table store: every caller
// must get the one in-place table for c, fully built, with no data
// race between the builder and the readers (run under -race by `make
// race`). The coefficient range is one no other test's graphs are
// likely to have warmed, but the assertions hold either way.
func TestCachedMulTableFirstUseHammer(t *testing.T) {
	const goroutines, coeffs, first = 64, 512, 0xE000
	src := make([]gf.Elem, 64)
	for i := range src {
		src[i] = gf.Elem(i*2654435761 + 1)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]gf.Elem, len(src))
			<-start
			for i := 0; i < coeffs; i++ {
				// Stagger the walk so goroutines collide on first use
				// from both directions.
				c := gf.Elem(first + (i+w*7)%coeffs)
				tab := CachedMulTable(c)
				if tab != &coeffTables[c] || tab.C() != c {
					t.Errorf("CachedMulTable(%#x) = table for %#x at %p, want the flat slot", c, tab.C(), tab)
					return
				}
				clear(dst)
				gf.MulSliceTable16(dst, src, tab)
				if want := gf.Mul(c, src[5]); dst[5] != want {
					t.Errorf("table for %#x multiplies %#x to %#x, want %#x", c, src[5], dst[5], want)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
