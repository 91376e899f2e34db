package db

import (
	"fmt"

	"subthreads/internal/mem"
)

// Tree is a B+-tree table index. Every descent, probe, and modification
// emits the corresponding loads, stores, and latch traffic at the page's
// simulated addresses — so two epochs inserting into the same leaf really do
// conflict on the leaf's entry-count word, exactly the kind of internal
// dependence the paper's workloads exhibit.
type Tree struct {
	id     int
	name   string
	env    *Env
	root   *node
	height int
	stats  mem.Addr // shared record-count statistics word

	// Size is the number of live entries (functional bookkeeping).
	Size int
	// Splits counts leaf/internal splits (diagnostics).
	Splits uint64
}

type node struct {
	page *Page
	leaf bool
	keys []int64
	rows []*Row  // leaf payloads
	kids []*node // internal children
	next *node   // leaf chain
}

// NewTree creates an empty table index.
func (e *Env) NewTree(name string) *Tree {
	t := &Tree{
		id:    len(e.trees) + 1,
		name:  name,
		env:   e,
		stats: e.misc.AllocLine(),
	}
	t.root = t.newNode(true)
	t.height = 1
	e.trees = append(e.trees, t)
	return t
}

// Name returns the tree's table name.
func (t *Tree) Name() string { return t.name }

// Height returns the current tree height.
func (t *Tree) Height() int { return t.height }

func (t *Tree) newNode(leaf bool) *node {
	return &node{page: t.env.newPage(), leaf: leaf}
}

// findIdx returns the index of the first key >= key, emitting binary-search
// probes when c != nil.
func (t *Tree) findIdx(c *Ctx, n *node, key int64) int {
	lo, hi := 0, len(n.keys)
	if c != nil {
		c.rec.Load(t.env.siteOf(t.name, ".hdr.count.load"), n.page.hdrCount())
		c.rec.ALU(3)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if c != nil {
			c.rec.Load(t.env.siteOf(t.name, ".key.probe"), n.page.keyAddr(mid))
			c.rec.ALU(4)
			c.rec.Branch(t.env.siteOf(t.name, ".probe.branch"), c.nextHash()%2 == 0)
		}
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperIdx returns the index of the child to descend into: the number of
// separator keys <= key. Emission matches findIdx.
func (t *Tree) upperIdx(c *Ctx, n *node, key int64) int {
	lo, hi := 0, len(n.keys)
	if c != nil {
		c.rec.Load(t.env.siteOf(t.name, ".hdr.count.load"), n.page.hdrCount())
		c.rec.ALU(3)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if c != nil {
			c.rec.Load(t.env.siteOf(t.name, ".key.probe"), n.page.keyAddr(mid))
			c.rec.ALU(4)
			c.rec.Branch(t.env.siteOf(t.name, ".probe.branch"), c.nextHash()%2 == 0)
		}
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descend walks from the root to the leaf for key, emitting pool lookups,
// latch traffic (crab latching when escaped latches are in use), and
// per-level compute. It returns the leaf and the path of internal nodes for
// split propagation.
func (t *Tree) descend(c *Ctx, key int64, forWrite bool) (leaf *node, path []*node) {
	n := t.root
	var prev *node
	for {
		if c != nil {
			t.env.pool.get(c, n.page, forWrite && n.leaf)
			t.env.latchPage(c, n.page, forWrite && n.leaf)
			if prev != nil {
				t.env.unlatchPage(c, prev.page) // crab latching
			}
			c.work(t.name+".descend", t.env.cfg.Costs.BtreeLevel)
		}
		if n.leaf {
			return n, path
		}
		path = append(path, n)
		// Canonical B+-tree routing: keys[j] separates kids[j] and
		// kids[j+1]; descend into the first child whose upper bound
		// exceeds key.
		i := t.upperIdx(c, n, key)
		if c != nil {
			c.rec.Load(t.env.siteOf(t.name, ".child.load"), n.page.slotAddr(i))
			t.env.pool.unpin(c, n.page)
		}
		prev = n
		n = n.kids[i]
	}
}

// Get looks up key, emitting the full read path. The row is returned without
// copying; callers emit field reads through Row.ReadField.
func (t *Tree) Get(c *Ctx, key int64) (*Row, bool) {
	leaf, _ := t.descend(c, key, false)
	i := t.findIdx(c, leaf, key)
	found := i < len(leaf.keys) && leaf.keys[i] == key
	if c != nil {
		if found {
			c.rec.Load(t.env.siteOf(t.name, ".row.ptr"), leaf.page.slotAddr(i))
			c.work(t.name+".get", t.env.cfg.Costs.RowRead)
		}
		t.env.unlatchPage(c, leaf.page)
		t.env.pool.unpin(c, leaf.page)
	}
	if !found {
		return nil, false
	}
	return leaf.rows[i], true
}

// GetForUpdate looks up key with write intent: the page is fetched for
// writing (marking the frame dirty and bumping the pool's dirty-page
// accounting), as an UPDATE's current-mode cursor does.
func (t *Tree) GetForUpdate(c *Ctx, key int64) (*Row, bool) {
	leaf, _ := t.descend(c, key, true)
	i := t.findIdx(c, leaf, key)
	found := i < len(leaf.keys) && leaf.keys[i] == key
	if c != nil {
		if found {
			c.rec.Load(t.env.siteOf(t.name, ".row.ptr"), leaf.page.slotAddr(i))
			c.work(t.name+".get", t.env.cfg.Costs.RowRead)
		}
		t.env.unlatchPage(c, leaf.page)
		t.env.pool.unpin(c, leaf.page)
	}
	if !found {
		return nil, false
	}
	return leaf.rows[i], true
}

// Insert adds (key, row); duplicate keys are rejected with a panic — the
// TPC-C workloads never generate duplicates, so one indicates a bug.
func (t *Tree) Insert(c *Ctx, key int64, row *Row) {
	leaf, path := t.descend(c, key, true)
	i := t.findIdx(c, leaf, key)
	if i < len(leaf.keys) && leaf.keys[i] == key {
		panic(fmt.Sprintf("db: duplicate key %d in %s", key, t.name))
	}
	if c != nil {
		c.noteWrite()
		// Slot shift, key/pointer stores, and the entry-count update:
		// the leaf header store is the contended word.
		c.work(t.name+".insert", t.env.cfg.Costs.LeafInsert)
		c.rec.Store(t.env.siteOf(t.name, ".slot.shift"), leaf.page.slotAddr(i))
		c.rec.Store(t.env.siteOf(t.name, ".key.store"), leaf.page.keyAddr(i))
		c.rec.Store(t.env.siteOf(t.name, ".rowptr.store"), leaf.page.slotAddr(i))
		c.rec.ALU(4)
		c.rec.Store(t.env.siteOf(t.name, ".hdr.count.store"), leaf.page.hdrCount())
	}
	leaf.keys = insertAt(leaf.keys, i, key)
	leaf.rows = insertRowAt(leaf.rows, i, row)
	t.Size++
	if c != nil {
		c.noteUndo(func() { t.Delete(nil, key) })
	}
	if len(leaf.keys) > t.env.cfg.NodeCapacity {
		t.split(c, leaf, path)
	}
	if c != nil {
		t.env.unlatchPage(c, leaf.page)
		t.env.pool.unpin(c, leaf.page)
		// Table record-count statistics: one of the "actual data
		// dependences which are difficult to optimize away" (§5) —
		// every insert into the same table conflicts here.
		c.rec.Load(t.env.siteOf(t.name, ".stats.load"), t.stats)
		c.rec.ALU(3)
		c.rec.Store(t.env.siteOf(t.name, ".stats.store"), t.stats)
		t.env.log.record(c, 8)
	}
}

// Delete removes key, reporting whether it was present. Underflow merging is
// not implemented (deletes are rare in these workloads — only DELIVERY
// removes NEW_ORDER rows — and BerkeleyDB also leaves pages underfull).
func (t *Tree) Delete(c *Ctx, key int64) bool {
	leaf, _ := t.descend(c, key, true)
	i := t.findIdx(c, leaf, key)
	if i >= len(leaf.keys) || leaf.keys[i] != key {
		if c != nil {
			t.env.unlatchPage(c, leaf.page)
			t.env.pool.unpin(c, leaf.page)
		}
		return false
	}
	if c != nil {
		c.noteWrite()
		c.work(t.name+".delete", t.env.cfg.Costs.LeafDelete)
		c.rec.Store(t.env.siteOf(t.name, ".slot.shift"), leaf.page.slotAddr(i))
		c.rec.ALU(4)
		c.rec.Store(t.env.siteOf(t.name, ".hdr.count.store"), leaf.page.hdrCount())
		t.env.unlatchPage(c, leaf.page)
		t.env.pool.unpin(c, leaf.page)
		c.rec.Load(t.env.siteOf(t.name, ".stats.load"), t.stats)
		c.rec.ALU(3)
		c.rec.Store(t.env.siteOf(t.name, ".stats.store"), t.stats)
		t.env.log.record(c, 6)
	}
	if c != nil {
		row := leaf.rows[i]
		c.noteUndo(func() { t.Insert(nil, key, row) })
	}
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.rows = append(leaf.rows[:i], leaf.rows[i+1:]...)
	t.Size--
	return true
}

// Scan walks entries with key >= from in order, emitting leaf-chain reads,
// until fn returns false or max entries have been visited (max <= 0 means
// unlimited).
func (t *Tree) Scan(c *Ctx, from int64, max int, fn func(key int64, r *Row) bool) {
	leaf, _ := t.descend(c, from, false)
	i := t.findIdx(c, leaf, from)
	seen := 0
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if c != nil {
				c.rec.Load(t.env.siteOf(t.name, ".scan.key"), leaf.page.keyAddr(i))
				c.rec.Load(t.env.siteOf(t.name, ".scan.ptr"), leaf.page.slotAddr(i))
				c.rec.ALU(6)
				c.branchSeq++
				c.rec.Branch(t.env.siteOf(t.name, ".scan.branch"), true)
			}
			if !fn(leaf.keys[i], leaf.rows[i]) {
				if c != nil {
					t.env.unlatchPage(c, leaf.page)
					t.env.pool.unpin(c, leaf.page)
				}
				return
			}
			seen++
			if max > 0 && seen >= max {
				if c != nil {
					t.env.unlatchPage(c, leaf.page)
					t.env.pool.unpin(c, leaf.page)
				}
				return
			}
		}
		next := leaf.next
		if c != nil {
			t.env.unlatchPage(c, leaf.page)
			t.env.pool.unpin(c, leaf.page)
			if next != nil {
				t.env.pool.get(c, next.page, false)
				t.env.latchPage(c, next.page, false)
				c.rec.Load(t.env.siteOf(t.name, ".hdr.count.load"), next.page.hdrCount())
			}
		}
		leaf = next
		i = 0
	}
}

// split divides an overfull node, propagating up the path. Leaf splits copy
// the upper half and publish its first key as the separator; internal splits
// push the middle separator up.
func (t *Tree) split(c *Ctx, n *node, path []*node) {
	t.Splits++
	right := t.newNode(n.leaf)
	var sep int64
	var mid int
	if n.leaf {
		mid = len(n.keys) / 2
		right.keys = append(right.keys, n.keys[mid:]...)
		right.rows = append(right.rows, n.rows[mid:]...)
		n.keys = n.keys[:mid]
		n.rows = n.rows[:mid]
		right.next = n.next
		n.next = right
		sep = right.keys[0]
	} else {
		mid = len(n.keys) / 2
		sep = n.keys[mid]
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.kids = append(right.kids, n.kids[mid+1:]...)
		n.keys = n.keys[:mid]
		n.kids = n.kids[:mid+1]
	}

	if c != nil {
		// Moving half the entries is a burst of page traffic.
		c.work(t.name+".split", 800)
		for i := 0; i < 8; i++ {
			c.rec.Load(t.env.siteOf(t.name, ".split.copy.load"), n.page.keyAddr(mid+i))
			c.rec.Store(t.env.siteOf(t.name, ".split.copy.store"), right.page.keyAddr(i))
		}
		c.rec.Store(t.env.siteOf(t.name, ".hdr.count.store"), n.page.hdrCount())
		c.rec.Store(t.env.siteOf(t.name, ".hdr.count.store"), right.page.hdrCount())
	}

	if len(path) == 0 {
		// Grow a new root.
		root := t.newNode(false)
		root.keys = []int64{sep}
		root.kids = []*node{n, right}
		t.root = root
		t.height++
		return
	}
	parent := path[len(path)-1]
	i := parentIdx(parent, n)
	parent.keys = insertAt(parent.keys, i, sep)
	parent.kids = insertNodeAt(parent.kids, i+1, right)
	if c != nil {
		c.rec.Store(t.env.siteOf(t.name, ".parent.key.store"), parent.page.keyAddr(i))
		c.rec.Store(t.env.siteOf(t.name, ".hdr.count.store"), parent.page.hdrCount())
	}
	if len(parent.keys) > t.env.cfg.NodeCapacity {
		t.split(c, parent, path[:len(path)-1])
	}
}

func parentIdx(parent, child *node) int {
	for i, k := range parent.kids {
		if k == child {
			return i
		}
	}
	panic("db: split child not found in parent")
}

func insertAt(s []int64, i int, v int64) []int64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRowAt(s []*Row, i int, v *Row) []*Row {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNodeAt(s []*node, i int, v *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// LoadInsert bulk-loads (key, row) without emitting trace events; the paper
// does not time database loading either. Rows are packed contiguously, so
// adjacent rows of a table can share cache lines — the realistic false-
// sharing the line-granularity dependence tracking of §2.1 is exposed to.
func (t *Tree) LoadInsert(key int64, fields ...int64) *Row {
	row := t.env.newRowQuiet(len(fields))
	copy(row.Fields, fields)
	t.Insert(nil, key, row)
	return row
}

// LoadInsertPadded bulk-loads a row on its own cache line. Used for small hot
// tables (WAREHOUSE, DISTRICT) whose rows would otherwise all share one line
// and serialize every transaction — the padding the paper's tuning process
// applies to hot structures.
func (t *Tree) LoadInsertPadded(key int64, fields ...int64) *Row {
	size := uint32(len(fields) * 8)
	if size == 0 {
		size = 8
	}
	row := &Row{
		addr:   t.env.heap.Alloc(size, mem.LineSize),
		Fields: make([]int64, len(fields)),
	}
	copy(row.Fields, fields)
	t.Insert(nil, key, row)
	return row
}
