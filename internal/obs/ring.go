package obs

// ring is the bounded drop-oldest buffer behind every retained tail in
// this package (journal events, trace spans, raw timeline samples and
// rollup bins): a push past capacity overwrites the oldest entry and
// counts it in dropped, so a long run keeps its recent tail at a fixed
// memory cost. It is not safe for concurrent use; each owner guards it
// with its own mutex.
type ring[T any] struct {
	buf     []T
	start   int // index of the oldest retained entry
	n       int // retained count
	dropped int64
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

// push stores v as the newest entry, overwriting the oldest when full.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.buf[r.start] = v
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
		return
	}
	r.buf[(r.start+r.n)%len(r.buf)] = v
	r.n++
}

// at returns the i-th oldest retained entry, 0 <= i < r.n.
func (r *ring[T]) at(i int) T {
	return r.buf[(r.start+i)%len(r.buf)]
}

// appendFrom appends the retained entries from the i-th oldest on to
// dst, oldest first.
func (r *ring[T]) appendFrom(dst []T, i int) []T {
	for ; i < r.n; i++ {
		dst = append(dst, r.at(i))
	}
	return dst
}

// after maps a sequence cursor to the index of the first retained entry
// past it, for owners that stamp contiguous sequence numbers ending at
// last on the retained entries. A cursor older than the retained tail
// maps to 0; one at or past last maps to r.n or beyond.
func (r *ring[T]) after(last, seq int64) int {
	first := last - int64(r.n) // sequence before the oldest retained entry
	if seq < first {
		seq = first
	}
	return int(seq - first)
}

// reset empties the ring and clears its drop count.
func (r *ring[T]) reset() {
	r.start, r.n, r.dropped = 0, 0, 0
}
