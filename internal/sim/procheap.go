package sim

// heapNode is a process's membership in one procHeap: its key (at, seq)
// and its pairing-heap links — first child, next sibling, and prev, which
// is the left sibling or, for a first child, the parent.
type heapNode struct {
	at                Time
	seq               uint64
	child, next, prev *Proc
	in                bool
}

// procHeap is an intrusive pairing heap of processes ordered by the
// (at, seq) key of one of their heapNodes (Proc.heap[which]). It keeps
// every link inside the Procs, so push, pop and remove allocate nothing,
// and it supports removing any member, which a binary heap of values
// cannot do.
type procHeap struct {
	root  *Proc
	len   int
	which int
}

func (h *procHeap) node(p *Proc) *heapNode { return &p.heap[h.which] }

func nodeBefore(a, b *heapNode) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// link makes the later of two heap roots the first child of the earlier
// one and returns the earlier.
func (h *procHeap) link(a, b *Proc) *Proc {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	na, nb := h.node(a), h.node(b)
	if nodeBefore(nb, na) {
		a, b, na, nb = b, a, nb, na
	}
	nb.next = na.child
	if na.child != nil {
		h.node(na.child).prev = b
	}
	nb.prev = a
	na.child = b
	return a
}

// merge melds a sibling list into one heap: pairwise left to right, then
// the pairs right to left (the standard two-pass pairing).
func (h *procHeap) merge(first *Proc) *Proc {
	var pairs *Proc // melded pairs, chained through next, last pair first
	for a := first; a != nil; {
		na := h.node(a)
		b, rest := na.next, (*Proc)(nil)
		na.next, na.prev = nil, nil
		if b != nil {
			nb := h.node(b)
			rest = nb.next
			nb.next, nb.prev = nil, nil
		}
		m := h.link(a, b)
		h.node(m).next = pairs
		pairs = m
		a = rest
	}
	var root *Proc
	for pairs != nil {
		np := h.node(pairs)
		rest := np.next
		np.next = nil
		root = h.link(root, pairs)
		pairs = rest
	}
	return root
}

// push adds p, which must not be a member, under key (at, seq).
func (h *procHeap) push(p *Proc, at Time, seq uint64) {
	*h.node(p) = heapNode{at: at, seq: seq, in: true}
	h.root = h.link(h.root, p)
	h.len++
}

// pop removes and returns the member with the least key (the heap must
// not be empty).
func (h *procHeap) pop() *Proc {
	p := h.root
	n := h.node(p)
	h.root = h.merge(n.child)
	n.child, n.in = nil, false
	h.len--
	return p
}

// remove takes member p out of the heap.
func (h *procHeap) remove(p *Proc) {
	if p == h.root {
		h.pop()
		return
	}
	n := h.node(p)
	if pn := h.node(n.prev); pn.child == p {
		pn.child = n.next
	} else {
		pn.next = n.next
	}
	if n.next != nil {
		h.node(n.next).prev = n.prev
	}
	h.root = h.link(h.root, h.merge(n.child))
	*n = heapNode{}
	h.len--
}
