package tree

import "slices"

// keepFits is how many fits an unused row set's orders outlive, so the
// cache holds the row sets of the last keepFits fits however many share it.
const keepFits = 10

// Orders carries the split search's sort orders between fits over one
// unchanged X, such as a boosting ensemble's stages. A node's rows are in
// ascending order and sortSamples' permutation depends on the keys alone,
// so a row set an earlier fit sorted takes that fit's per-feature orders
// instead of sorting again, to the same bits. The zero value is ready.
type Orders struct {
	x      *[]float64 // &X[0] of the fits the sets belong to
	n, nf  int        // len(X) and the features each split examines
	fit    int        // fits begun
	sets   map[uint64]*rowSet
	reused int
}

// rowSet is one node's rows and, for each examined feature fi, the rows in
// sorted order at orders[fi*len(rows) : (fi+1)*len(rows)].
type rowSet struct {
	rows   []int
	orders []int32
	used   int // the last fit that sorted or reused them
}

// Reused returns how many nodes took their orders from an earlier fit.
func (o *Orders) Reused() int { return o.reused }

// begin starts a fit over X examining nf features per split: orders
// recorded over another X or feature count are dropped, and so are the row
// sets no fit used in the last keepFits.
func (o *Orders) begin(X [][]float64, nf int) {
	if o.sets == nil || o.x != &X[0] || o.n != len(X) || o.nf != nf {
		*o = Orders{x: &X[0], n: len(X), nf: nf, sets: map[uint64]*rowSet{}, reused: o.reused}
	}
	o.fit++
	for h, s := range o.sets {
		if o.fit-s.used > keepFits {
			delete(o.sets, h)
		}
	}
}

// find returns the orders of the node over rows and whether an earlier fit
// filled them in; if not, the caller does as it sorts. A nil Orders has none.
func (o *Orders) find(rows []int) ([]int32, bool) {
	if o == nil {
		return nil, false
	}
	h := uint64(14695981039346656037) // FNV-1a over the row numbers
	for _, i := range rows {
		h = (h ^ uint64(i)) * 1099511628211
	}
	if s := o.sets[h]; s != nil && slices.Equal(s.rows, rows) {
		s.used = o.fit
		o.reused++
		return s.orders, true
	}
	s := &rowSet{rows: slices.Clone(rows), orders: make([]int32, o.nf*len(rows)), used: o.fit}
	o.sets[h] = s // a colliding set is replaced
	return s.orders, false
}
