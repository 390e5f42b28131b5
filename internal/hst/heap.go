package hst

// heapItem orders the entries of a binary heap: a.before(b) means a pops
// first. KNN's frontier and EMD's flows are heaps of such values, kept
// unboxed in a plain slice.
type heapItem[T any] interface {
	before(T) bool
}

// heapPush adds x to the heap h and returns the grown heap.
func heapPush[T heapItem[T]](h []T, x T) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapPop removes the first entry of the non-empty heap h and returns it
// with the shrunk heap.
func heapPop[T heapItem[T]](h []T) (T, []T) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		first, l := i, 2*i+1
		if l >= last {
			break
		}
		if h[l].before(h[first]) {
			first = l
		}
		if r := l + 1; r < last && h[r].before(h[first]) {
			first = r
		}
		if first == i {
			break
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
	return top, h
}
