// Package ring provides the FIFO every simulated queue in the request path
// uses: a growable circular buffer whose Push and Pop never allocate once it
// has reached the queue's peak depth, in place of the `q = q[1:]` /
// `q = append(q, x)` idiom, which reallocates the backing array every time
// the slice has crawled to its end.
package ring

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. It panics on an empty queue, like
// indexing an empty slice would.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("ring: Pop on an empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference: the queue must not pin what it handed out
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the head without removing it. It panics on an empty queue.
func (q *Queue[T]) Peek() T {
	if q.n == 0 {
		panic("ring: Peek on an empty queue")
	}
	return q.buf[q.head]
}

// At returns a pointer to the i-th element from the head (0 is what Pop
// would return), for scans that mark queued elements in place. The pointer
// is valid until the next Push, Pop or Reset. It panics when i is out of
// range.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("ring: At out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Reset empties the queue and releases its storage.
func (q *Queue[T]) Reset() { *q = Queue[T]{} }

func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
