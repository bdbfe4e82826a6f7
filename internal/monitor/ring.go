package monitor

// ring is a fixed-capacity circular buffer holding the most recent
// pushed values. It replaces the monitor's old append-and-reslice
// column storage, whose trim() kept resliced prefixes alive in the
// backing arrays (retained-prefix growth) and reallocated as the
// buffers grew. A ring allocates once and evicts by overwrite.
type ring[T any] struct {
	buf  []T
	head int // index of the logical first (oldest) element
	n    int
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) len() int { return r.n }

// push appends v, evicting the oldest value when full.
func (r *ring[T]) push(v T) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// segs returns the buffered values, oldest first, as at most two
// contiguous slices of the backing array.
func (r *ring[T]) segs() (a, b []T) {
	if r.n == 0 {
		return nil, nil
	}
	end := r.head + r.n
	if end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:end-len(r.buf)]
}

// values copies the buffered values out, oldest first.
func (r *ring[T]) values() []T {
	a, b := r.segs()
	return append(append(make([]T, 0, r.len()), a...), b...)
}
