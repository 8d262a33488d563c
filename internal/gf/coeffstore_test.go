package gf

import (
	"sync"
	"testing"
)

// TestCoeffStoreFirstUseHammer races 64 goroutines on the first use of
// the same coefficients of each flat store, half through MulSlice16 and
// half through a FormsOf gather and MulSliceForm, on every reachable
// dispatch path: every caller must multiply by the fully
// built form of c, with no data race between the builder and the
// readers (run under -race by `make race`), and each slot must end up
// holding exactly its coefficient's form. Each path walks its own
// coefficient range, one no other test is likely to have warmed first,
// but the assertions hold either way.
func TestCoeffStoreFirstUseHammer(t *testing.T) {
	const goroutines, coeffs = 64, 512
	src := make([]Elem, 64)
	for i := range src {
		src[i] = Elem(i*2654435761 + 1)
	}
	first := Elem(0xE000)
	forEachPath(func(path string) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				dst := make([]Elem, len(src))
				form := make([]Form, 1)
				<-start
				for i := 0; i < coeffs; i++ {
					// Stagger the walk so goroutines collide on first use
					// from both directions.
					c := first + Elem((i+w*7)%coeffs)
					clear(dst)
					if w%2 == 0 {
						MulSlice16(dst, src, c)
					} else {
						FormsOf(form, []Elem{c})
						MulSliceForm(dst, src, &form[0])
					}
					if want := Mul(c, src[5]); dst[5] != want {
						t.Errorf("%s: %#x multiplies %#x to %#x, want %#x", path, c, src[5], dst[5], want)
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for c := first; c < first+coeffs; c++ {
			if haveGFNI {
				var want [4]uint64
				affineMulMatrix(&want, c)
				if affineForms[c] != want {
					t.Fatalf("%s: affine slot %#x holds %x, want %x", path, c, affineForms[c], want)
				}
			} else if got := lutForms[c].C(); got != c {
				t.Fatalf("%s: table slot %#x holds the table for %#x", path, c, got)
			}
		}
		first += coeffs
	})
}
