package kernel

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vcache/internal/arch"
	"vcache/internal/fs"
	"vcache/internal/pmap"
	"vcache/internal/policy"
)

// TestSnapshotForkIsolation forks one frozen image twice and, through
// one fork, mutates every structure Clone copies flat: page-table
// entries (Enter, Remove, RemoveAll), the frame allocator (Alloc,
// FreeFrame), the disk (AllocBlock, WriteBlock), file block lists
// (Extend), buffers (a fresh buffer fill) and the window pool (a page
// zeroed through a kernel window). Everything reachable from the
// sibling and from the image must be unchanged, down to the last
// memory word. It runs with the single free list and with the colored
// ones.
func TestSnapshotForkIsolation(t *testing.T) {
	for _, colored := range []bool{false, true} {
		t.Run(fmt.Sprintf("colored=%t", colored), func(t *testing.T) {
			cfg := policy.New()
			cfg.Features.ColoredFreeList = colored
			forkIsolation(t, bootT(t, cfg))
		})
	}
}

func forkIsolation(t *testing.T, k *Kernel) {
	p, err := k.Spawn(nil, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var files []*fs.File
	for _, name := range []string{"a", "b", "c"} {
		f, err := k.CreateFile(p, name)
		if err != nil {
			t.Fatal(err)
		}
		for page := uint64(0); page < 3; page++ {
			if err := k.TouchHeap(p, page, 64); err != nil {
				t.Fatal(err)
			}
			if err := k.WriteFilePage(p, f, page, page); err != nil {
				t.Fatal(err)
			}
		}
		files = append(files, f)
	}
	if err := k.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := k.Snapshot()
	a, sib := snap.Fork(), snap.Fork()
	image, sibling := render(k), render(sib)

	pa := a.procs[p.ID]
	fa, err := a.FS.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	space := pa.Space.ID
	vpn := a.M.Geom.PageOf(pa.HeapVA(a.M.Geom, 0, 0))
	frame, ok := a.PM.Translate(space, vpn)
	if !ok {
		t.Fatal("heap page 0 not mapped")
	}
	a.PM.Remove(space, vpn)
	a.PM.Enter(space, vpn+100, frame, arch.ProtReadWrite, pmap.KindUser)
	f2, err := a.PM.AllocFrame(arch.NoCachePage)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PM.ZeroPage(f2, vpn); err != nil {
		t.Fatal(err)
	}
	a.PM.FreeFrame(f2)
	if err := a.Disk.WriteBlock(a.Disk.AllocBlock(), frame); err != nil {
		t.Fatal(err)
	}
	a.FS.Extend(fa, fa.Pages()+2)
	b, err := a.FS.GetBuffer(fa, fa.Pages(), true)
	if err != nil {
		t.Fatal(err)
	}
	a.FS.MarkDirty(b)
	if err := a.WriteFilePage(pa, fa, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil { // rewrites a block the image shares
		t.Fatal(err)
	}
	if err := a.TouchHeap(pa, 1, 512); err != nil {
		t.Fatal(err)
	}
	a.PM.RemoveAll(space)

	if got := render(k); got != image {
		t.Errorf("the image changed under a fork: %s", firstDiff(image, got))
	}
	if got := render(sib); got != sibling {
		t.Errorf("a sibling changed under a fork: %s", firstDiff(sibling, got))
	}
	if fa.Pages() == files[1].Pages() {
		t.Fatalf("the fork's file did not grow (%d pages)", fa.Pages())
	}
}

// render writes out every value reachable from v, following pointers,
// interfaces, slices (up to their capacity, so a write into shared spare
// capacity shows) and maps (in key order); a pointer met again is
// written as its address. Funcs and channels are skipped.
func render(v any) string {
	var b strings.Builder
	walk(&b, reflect.ValueOf(v), map[uintptr]bool{})
	return b.String()
}

func walk(b *strings.Builder, v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			b.WriteString("@" + strconv.FormatUint(uint64(v.Pointer()), 16))
			return
		}
		seen[v.Pointer()] = true
		walk(b, v.Elem(), seen)
	case reflect.Interface:
		if !v.IsNil() {
			walk(b, v.Elem(), seen)
		}
	case reflect.Struct:
		b.WriteByte('{')
		for i := range v.NumField() {
			b.WriteString(v.Type().Field(i).Name + ":")
			walk(b, v.Field(i), seen)
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		b.WriteByte('[')
		for i := range v.Len() {
			walk(b, v.Index(i), seen)
			b.WriteByte(' ')
		}
		b.WriteByte(']')
	case reflect.Map:
		type entry struct {
			key string
			val reflect.Value
		}
		var es []entry
		for it := v.MapRange(); it.Next(); {
			var kb strings.Builder
			walk(&kb, it.Key(), map[uintptr]bool{})
			es = append(es, entry{kb.String(), it.Value()})
		}
		slices.SortFunc(es, func(x, y entry) int { return strings.Compare(x.key, y.key) })
		b.WriteByte('{')
		for _, e := range es {
			b.WriteString(e.key + ":")
			walk(b, e.val, seen)
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	}
}

// firstDiff shows where two renderings first differ.
func firstDiff(want, got string) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(i-200, 0)
	return "before ..." + want[lo:min(i+80, len(want))] + "\nafter  ..." + got[lo:min(i+80, len(got))]
}
