package ml

import (
	"fmt"
	"math/rand"
	"sort"
)

// Split is one train/test partition, as row indices into the dataset.
type Split struct {
	Train []int
	Test  []int
}

// targetBins assigns each sample a quantile bin of its target value; used to
// stratify regression splits (the paper's "stratified cross validation" on a
// continuous FDR target).
func targetBins(y []float64, bins int) []int {
	type pair struct {
		v float64
		i int
	}
	ps := make([]pair, len(y))
	for i, v := range y {
		ps[i] = pair{v: v, i: i}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].v < ps[b].v })
	out := make([]int, len(y))
	for rank, p := range ps {
		out[p.i] = rank * bins / len(y)
	}
	return out
}

// StratifiedShuffleSplits reproduces the paper's evaluation protocol
// (Section IV: "cross validation fold of 10 and a training size of 50 %"):
// nSplits independent shuffle splits, each drawing trainFrac of the samples
// for training, stratified over quantile bins of the target so every split
// sees the full FDR range.
func StratifiedShuffleSplits(y []float64, nSplits int, trainFrac float64, bins int, seed int64) ([]Split, error) {
	n := len(y)
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 samples", ErrBadData)
	}
	if nSplits < 1 {
		return nil, fmt.Errorf("%w: nSplits=%d", ErrBadData, nSplits)
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, fmt.Errorf("%w: train fraction %v out of (0,1)", ErrBadData, trainFrac)
	}
	if bins < 1 {
		return nil, fmt.Errorf("%w: bins=%d", ErrBadData, bins)
	}
	if bins > n {
		bins = n
	}
	binOf := targetBins(y, bins)
	byBin := make([][]int, bins)
	for i, b := range binOf {
		byBin[b] = append(byBin[b], i)
	}
	rng := rand.New(rand.NewSource(seed))
	splits := make([]Split, nSplits)
	for s := range splits {
		var train, test []int
		for _, members := range byBin {
			if len(members) == 0 {
				continue
			}
			shuffled := append([]int(nil), members...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			k := int(trainFrac*float64(len(shuffled)) + 0.5)
			if k < 1 {
				k = 1
			}
			if k > len(shuffled)-1 {
				k = len(shuffled) - 1
			}
			train = append(train, shuffled[:k]...)
			test = append(test, shuffled[k:]...)
		}
		sort.Ints(train)
		sort.Ints(test)
		splits[s] = Split{Train: train, Test: test}
	}
	return splits, nil
}

// StratifiedKFoldSplits builds k folds balanced over target quantile bins.
func StratifiedKFoldSplits(y []float64, k, bins int, seed int64) ([]Split, error) {
	n := len(y)
	if k < 2 || k > n {
		return nil, fmt.Errorf("%w: k=%d for n=%d", ErrBadData, k, n)
	}
	if bins < 1 {
		return nil, fmt.Errorf("%w: bins=%d", ErrBadData, bins)
	}
	if bins > n {
		bins = n
	}
	binOf := targetBins(y, bins)
	byBin := make([][]int, bins)
	for i, b := range binOf {
		byBin[b] = append(byBin[b], i)
	}
	rng := rand.New(rand.NewSource(seed))
	folds := make([][]int, k)
	for _, members := range byBin {
		shuffled := append([]int(nil), members...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for i, idx := range shuffled {
			f := i % k
			folds[f] = append(folds[f], idx)
		}
	}
	splits := make([]Split, k)
	for i := 0; i < k; i++ {
		test := append([]int(nil), folds[i]...)
		var train []int
		for j := 0; j < k; j++ {
			if j != i {
				train = append(train, folds[j]...)
			}
		}
		sort.Ints(train)
		sort.Ints(test)
		splits[i] = Split{Train: train, Test: test}
	}
	return splits, nil
}
