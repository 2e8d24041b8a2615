package kernel

import (
	"fmt"

	"vcache/internal/arch"
	"vcache/internal/fs"
	"vcache/internal/machine"
	"vcache/internal/vm"
)

// This file is the syscall surface the workloads drive. Every Unix-style
// call first performs a server transaction over the process' shared
// channel page (the syscall request/response), then does the kernel-side
// work; that is how the paper's benchmarks, which are plain Unix
// programs, end up exercising the cache-consistency machinery
// indirectly.

// syscall request/response sizes in words.
const (
	syscallReqWords  = 16
	syscallRespWords = 8
)

// Syscall performs just the server transaction of a system call (run
// from the calling process' CPU; the server side runs on the server's).
func (k *Kernel) Syscall(p *Process) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	k.M.SetCurrentCPU(p.CPU)
	// Kernel work after the transaction is charged to the CPU the
	// process is on when that work runs — read p.CPU at return time,
	// not at entry: `defer k.M.SetCurrentCPU(p.CPU)` froze the entering
	// CPU, silently misattributing every caller's post-transaction tail
	// whenever the process had been migrated in between.
	defer func() { k.M.SetCurrentCPU(p.CPU) }()
	if err := k.Server.Transaction(p.Space, syscallReqWords, syscallRespWords); err != nil {
		return err
	}
	k.oplogf("syscall pid=%d", p.ID)
	return nil
}

// CreateFile creates a file on behalf of a process.
func (k *Kernel) CreateFile(p *Process, name string) (*fs.File, error) {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.Syscall(p); err != nil {
		return nil, err
	}
	f, err := k.FS.Create(name)
	if err != nil {
		return nil, err
	}
	k.oplogf("create pid=%d file=%s", p.ID, name)
	return f, nil
}

// OpenFile opens an existing file on behalf of a process.
func (k *Kernel) OpenFile(p *Process, name string) (*fs.File, error) {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.Syscall(p); err != nil {
		return nil, err
	}
	f, err := k.FS.Open(name)
	if err != nil {
		return nil, err
	}
	k.oplogf("open pid=%d file=%s", p.ID, name)
	return f, nil
}

// RemoveFile unlinks a file on behalf of a process.
func (k *Kernel) RemoveFile(p *Process, name string) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.Syscall(p); err != nil {
		return err
	}
	if err := k.FS.Remove(name); err != nil {
		return err
	}
	k.oplogf("remove pid=%d file=%s", p.ID, name)
	return nil
}

// ReadFilePage reads page `page` of file f into the process heap page
// `heapPage` — the read(2) path: server transaction, buffer-cache
// lookup (with a disk DMA on a miss), then a word-by-word copy from the
// buffer's kernel mapping into the user page through the user's own
// mapping.
func (k *Kernel) ReadFilePage(p *Process, f *fs.File, page, heapPage uint64) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := p.checkHeapPage(heapPage); err != nil {
		return err
	}
	if err := k.Syscall(p); err != nil {
		return err
	}
	b, err := k.FS.GetBuffer(f, page, false)
	if err != nil {
		return err
	}
	if _, err := k.copyPage(arch.KernelSpace, k.FS.VA(b, 0), p.Space.ID, p.HeapVA(k.Geometry(), heapPage, 0)); err != nil {
		return err
	}
	k.oplogf("readf pid=%d file=%s page=%d heap=%d", p.ID, f.Name, page, heapPage)
	return nil
}

// WriteFilePage writes the process heap page `heapPage` to page `page`
// of file f — the write(2) path: the data lands in a buffer and reaches
// the disk later via write-behind.
func (k *Kernel) WriteFilePage(p *Process, f *fs.File, page, heapPage uint64) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := p.checkHeapPage(heapPage); err != nil {
		return err
	}
	if err := k.Syscall(p); err != nil {
		return err
	}
	b, err := k.FS.GetBuffer(f, page, true)
	if err != nil {
		return err
	}
	n, err := k.copyPage(p.Space.ID, p.HeapVA(k.Geometry(), heapPage, 0), arch.KernelSpace, k.FS.VA(b, 0))
	if n > 0 {
		k.FS.MarkDirty(b)
	}
	if err != nil {
		return err
	}
	k.oplogf("writef pid=%d file=%s page=%d heap=%d", p.ID, f.Name, page, heapPage)
	return nil
}

// TouchHeap writes `stride`-spaced words of a heap page (faulting it in,
// zero-filled, on first touch).
func (k *Kernel) TouchHeap(p *Process, page uint64, words int) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	k.M.SetCurrentCPU(p.CPU)
	if err := p.checkHeapPage(page); err != nil {
		return err
	}
	if err := k.pageRun(p, p.HeapVA(k.Geometry(), page, 0), words, machine.AccessWrite); err != nil {
		return err
	}
	k.oplogf("touch pid=%d page=%d words=%d", p.ID, page, words)
	return nil
}

// ReadHeap reads `words` evenly spaced words of a heap page.
func (k *Kernel) ReadHeap(p *Process, page uint64, words int) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	k.M.SetCurrentCPU(p.CPU)
	if err := p.checkHeapPage(page); err != nil {
		return err
	}
	if err := k.pageRun(p, p.HeapVA(k.Geometry(), page, 0), words, machine.AccessRead); err != nil {
		return err
	}
	k.oplogf("readh pid=%d page=%d words=%d", p.ID, page, words)
	return nil
}

// RunText simulates execution: it fetches `words` evenly spaced
// instructions from each text page, faulting the pages in (data-to-
// instruction-space copies) on first touch.
func (k *Kernel) RunText(p *Process, words int) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	k.M.SetCurrentCPU(p.CPU)
	if p.Text == nil {
		return fmt.Errorf("kernel: process %d has no text", p.ID)
	}
	for pg := p.Text.Start; pg < p.Text.End(); pg++ {
		if err := k.pageRun(p, k.Geometry().PageBase(pg), words, machine.AccessExecute); err != nil {
			return err
		}
	}
	k.oplogf("runtext pid=%d words=%d", p.ID, words)
	return nil
}

// SendHeapPage transfers a heap page from one process to another as IPC
// out-of-line memory; the receiver address is kernel-chosen (aligned
// with the sender's under the align-pages policy). It returns the
// receiver-side VPN.
func (k *Kernel) SendHeapPage(from *Process, page uint64, to *Process) (arch.VPN, error) {
	k.preempt(from)
	k.opEnter()
	defer k.opExit()
	if err := from.checkHeapPage(page); err != nil {
		return 0, err
	}
	if err := k.Syscall(from); err != nil {
		return 0, err
	}
	vpn, err := k.VM.TransferPage(from.Space, heapBaseVPN+arch.VPN(page), to.Space)
	if err != nil {
		return 0, err
	}
	k.oplogf("send from=%d page=%d to=%d vpn=%#x", from.ID, page, to.ID, uint64(vpn))
	return vpn, nil
}

// SharePage maps the frame backing `page` of from's heap into to's
// address space read-write, leaving the sender's mapping intact —
// vm_remap-style sharing. Unlike SendHeapPage both sides keep the page,
// so under unaligned placement every write on one side costs the other
// a consistency fault. It returns the receiver-side VPN.
func (k *Kernel) SharePage(from *Process, page uint64, to *Process) (arch.VPN, error) {
	k.preempt(from)
	k.opEnter()
	defer k.opExit()
	if err := from.checkHeapPage(page); err != nil {
		return 0, err
	}
	if err := k.Syscall(from); err != nil {
		return 0, err
	}
	srcVPN := heapBaseVPN + arch.VPN(page)
	if _, ok := k.PM.Translate(from.Space.ID, srcVPN); !ok {
		// Fault the page resident so both sides share established data.
		if _, err := k.M.Read(from.Space.ID, from.HeapVA(k.Geometry(), page, 0)); err != nil {
			return 0, err
		}
	}
	vpn, err := k.VM.SharePage(from.Space, srcVPN, to.Space)
	if err != nil {
		return 0, err
	}
	k.oplogf("sharep from=%d page=%d to=%d vpn=%#x", from.ID, page, to.ID, uint64(vpn))
	return vpn, nil
}

// ReadPage reads `words` evenly spaced words from an arbitrary page of a
// process (used after IPC transfers, where the receiver address was
// kernel-chosen).
func (k *Kernel) ReadPage(p *Process, vpn arch.VPN, words int) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	k.M.SetCurrentCPU(p.CPU)
	if err := k.pageRun(p, k.Geometry().PageBase(vpn), words, machine.AccessRead); err != nil {
		return err
	}
	k.oplogf("readp pid=%d vpn=%#x words=%d", p.ID, uint64(vpn), words)
	return nil
}

// WritePage writes `words` evenly spaced words to an arbitrary mapped
// page of a process.
func (k *Kernel) WritePage(p *Process, vpn arch.VPN, words int) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.interrupted(); err != nil {
		return err
	}
	k.M.SetCurrentCPU(p.CPU)
	if err := k.pageRun(p, k.Geometry().PageBase(vpn), words, machine.AccessWrite); err != nil {
		return err
	}
	k.oplogf("writep pid=%d vpn=%#x words=%d", p.ID, uint64(vpn), words)
	return nil
}

// WriteFileContent fills `pages` pages of a file with fresh content
// directly in the buffer cache (used to build workload input files, e.g.
// source trees, before timing begins).
func (k *Kernel) WriteFileContent(f *fs.File, pages uint64) error {
	k.opEnter()
	defer k.opExit()
	words := k.Geometry().WordsPerPage()
	for pg := uint64(0); pg < pages; pg++ {
		if err := k.interrupted(); err != nil {
			return err
		}
		b, err := k.FS.GetBuffer(f, pg, true)
		if err != nil {
			return err
		}
		if err := k.M.Strided(arch.KernelSpace, k.FS.VA(b, 0), 8, (words+7)/8, machine.AccessWrite, k.nextValue); err != nil {
			return err
		}
		k.FS.MarkDirty(b)
	}
	k.oplogf("writec file=%s pages=%d", f.Name, pages)
	return nil
}

// ReadFilePageDirect reads page `page` of file f by DMA directly into
// the frame backing the process heap page — the demand-paging style read
// Mach's pagers used, with no intermediate buffer copy. The heap page is
// faulted resident first; if it holds dirty cached data the DMA
// preparation purges it (a DMA-write purge), and the process' next
// access to the page takes a consistency fault to purge the now-stale
// cached copy.
func (k *Kernel) ReadFilePageDirect(p *Process, f *fs.File, page, heapPage uint64) error {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := p.checkHeapPage(heapPage); err != nil {
		return err
	}
	if err := k.Syscall(p); err != nil {
		return err
	}
	vpn := k.Geometry().PageOf(p.HeapVA(k.Geometry(), heapPage, 0))
	if _, ok := k.PM.Translate(p.Space.ID, vpn); !ok {
		// Fault the page resident.
		if _, err := k.M.Read(p.Space.ID, p.HeapVA(k.Geometry(), heapPage, 0)); err != nil {
			return err
		}
	}
	frame, ok := k.PM.Translate(p.Space.ID, vpn)
	if !ok {
		return fmt.Errorf("kernel: heap page %d not resident after fault", heapPage)
	}
	if err := k.FS.ReadBlockInto(f, page, frame); err != nil {
		return err
	}
	k.oplogf("readfd pid=%d file=%s page=%d heap=%d", p.ID, f.Name, page, heapPage)
	return nil
}

// MapFile maps `pages` pages of file f read-only into the process at a
// kernel-chosen address (the mmap(2)-style path: data is paged in from
// the file system on first touch, through the cache, with aligned
// preparation under the optimized policies). Mapping the same file into
// several processes shares the paged-in frames — and, when the chosen
// addresses do not align, exercises the read-only alias machinery.
// It returns the first mapped virtual page.
func (k *Kernel) MapFile(p *Process, f *fs.File, obj *vm.Object, pages uint64) (arch.VPN, *vm.Object, error) {
	k.preempt(p)
	k.opEnter()
	defer k.opExit()
	if err := k.Syscall(p); err != nil {
		return 0, nil, err
	}
	if pages == 0 || pages > f.Pages() {
		pages = f.Pages()
	}
	if obj == nil {
		obj = k.VM.NewTextObject(&textPager{k: k, file: f})
	}
	reg, err := k.VM.MapObject(p.Space, obj, 0, pages, vm.NoVPN, arch.NoCachePage, arch.ProtRead, false, vm.KindFile)
	if err != nil {
		return 0, nil, err
	}
	k.oplogf("mapfile pid=%d file=%s obj=%d pages=%d vpn=%#x", p.ID, f.Name, k.objID(obj), pages, uint64(reg.Start))
	return reg.Start, obj, nil
}

// checkHeapPage rejects a heap page number outside p's heap region.
// HeapVA does not wrap-check, so an unchecked huge page number would
// silently name some other page of the address space.
func (p *Process) checkHeapPage(page uint64) error {
	if page >= p.heapPages {
		return fmt.Errorf("kernel: heap page %d out of range (%d)", page, p.heapPages)
	}
	return nil
}

// pageRun performs `words` evenly spaced accesses of kind acc to the page
// at base in p's address space, writes storing fresh values — the loop
// behind the heap, text and mapped-page operations. Zero words means no
// access, more than the page holds means every word, and a negative
// count is an error.
func (k *Kernel) pageRun(p *Process, base arch.VA, words int, acc machine.Access) error {
	if words < 0 {
		return fmt.Errorf("kernel: negative word count %d", words)
	}
	if words == 0 {
		return nil
	}
	total := k.Geometry().WordsPerPage()
	stride := max(total/uint64(words), 1)
	return k.M.Strided(p.Space.ID, base, stride, (total+stride-1)/stride, acc, k.nextValue)
}

// copyPage copies the page at (sspace, src) to the one at (dspace, dst)
// — the read(2)/write(2) copy between a buffer and a user page — in
// bulk where the machine's guards allow and word by word for the rest.
// It returns how many destination words were written.
func (k *Kernel) copyPage(sspace arch.SpaceID, src arch.VA, dspace arch.SpaceID, dst arch.VA) (uint64, error) {
	i, err := k.M.BulkCopyPage(sspace, src, dspace, dst)
	if err != nil {
		return 0, err
	}
	for ; i < k.Geometry().WordsPerPage(); i++ {
		off := arch.VA(i * arch.WordSize)
		v, err := k.M.Read(sspace, src+off)
		if err != nil {
			return i, err
		}
		if err := k.M.Write(dspace, dst+off, v); err != nil {
			return i, err
		}
	}
	return i, nil
}
