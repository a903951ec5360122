// Package storage provides a named object store over the simulated flash
// array. Workload inputs (TPC-H tables, matrices, option batches) live
// here; both the host path (read over the external link) and the ISP path
// (read over the internal array only) start from the same objects.
//
// Objects are page-mapped through the FTL. Preload creates an object's
// mapping without consuming simulated time — it stands in for data that
// was written before the experiment begins, which is how the paper's
// datasets exist on the CSD before each run.
package storage

import (
	"fmt"

	"activego/internal/flash"
	"activego/internal/sim"
)

// Object describes one stored object.
type Object struct {
	Name      string
	Size      int64 // bytes
	firstPage int64 // first logical page
	pages     int64
}

// Store is the object store.
type Store struct {
	sim   *sim.Sim
	array *flash.Array
	ftl   *flash.FTL

	pageSize int64
	nextPage int64
	objects  map[string]*Object
}

// NewStore builds a store over array/ftl.
func NewStore(s *sim.Sim, array *flash.Array, ftl *flash.FTL) *Store {
	return &Store{
		sim:      s,
		array:    array,
		ftl:      ftl,
		pageSize: array.Geometry().PageSize,
		objects:  make(map[string]*Object),
	}
}

// Preload creates an object of the given size with its pages mapped, free
// of simulated time. It replaces any object with the same name.
func (st *Store) Preload(name string, size int64) *Object {
	if size < 0 {
		panic(fmt.Sprintf("storage: negative object size %d", size))
	}
	pages := (size + st.pageSize - 1) / st.pageSize
	if pages == 0 {
		pages = 1
	}
	obj := &Object{Name: name, Size: size, firstPage: st.nextPage, pages: pages}
	for p := int64(0); p < pages; p++ {
		st.ftl.WritePage(obj.firstPage + p)
	}
	st.nextPage += pages
	st.objects[name] = obj
	return obj
}

// Lookup returns the object named name.
func (st *Store) Lookup(name string) (*Object, bool) {
	o, ok := st.objects[name]
	return o, ok
}

// ReadChecked schedules reading length bytes starting at offset from the
// named object. The read is billed on the flash array; done fires when
// the array finishes, with flash.ErrUncorrectable when the read hits an
// injected UECC error. The data then still has to cross whatever link
// separates the consumer from the array — that is the caller's model
// decision.
func (st *Store) ReadChecked(name string, offset, length int64, done func(start, end sim.Time, err error)) {
	o, ok := st.objects[name]
	if !ok {
		panic(fmt.Sprintf("storage: read of missing object %q", name))
	}
	if offset < 0 || length < 0 || offset+length > o.Size {
		panic(fmt.Sprintf("storage: read [%d,%d) out of object %q size %d", offset, offset+length, name, o.Size))
	}
	st.array.ReadChecked(length, done)
}

// Write schedules writing length bytes at offset of the named object,
// extending it if needed, billing flash program time and FTL mapping work.
func (st *Store) Write(name string, offset, length int64, done func(start, end sim.Time)) {
	o, ok := st.objects[name]
	if !ok {
		o = st.Preload(name, 0)
	}
	if offset < 0 || length < 0 {
		panic(fmt.Sprintf("storage: bad write [%d,%d) on %q", offset, offset+length, name))
	}
	end := offset + length
	if end > o.Size {
		newPages := (end + st.pageSize - 1) / st.pageSize
		for p := o.pages; p < newPages; p++ {
			st.ftl.WritePage(o.firstPage + p)
		}
		if newPages > o.pages {
			o.pages = newPages
		}
		o.Size = end
	}
	// Remap overwritten pages (append-style FTL write).
	first := offset / st.pageSize
	last := (end + st.pageSize - 1) / st.pageSize
	for p := first; p < last && p < o.pages; p++ {
		st.ftl.WritePage(o.firstPage + p)
	}
	st.array.Program(length, done)
}
