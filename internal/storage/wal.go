package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Physical redo/undo write-ahead log. Every page mutation is bracketed
// by a full-page before-image (captured on first touch per transaction,
// used to undo in-flight losers after a crash) and a full-page
// after-image at transaction finish (used to redo winners). Pages carry
// their last WAL LSN in an 8-byte trailer; the buffer pool refuses to
// write a page whose trailer exceeds the durable WAL LSN, which is the
// whole WAL-before-data invariant in one sentence.
//
// Group commit: appenders stage encoded records in an in-memory buffer
// under w.mu. A committer that must wait for its record flushes the log
// itself: the first to take ioMu writes and fsyncs everything staged so
// far, and the committers queued behind it on ioMu find their LSN
// already durable and return without I/O. The queue is the batch, so
// there is no flusher goroutine, no window and no knob: a lone
// committer pays exactly one fsync, and concurrent ones share each
// fsync with everyone who staged while the previous one ran. A unit
// finished without waiting is only staged; it becomes durable with the
// next waiter, the buffer pool's WAL barrier, a checkpoint or Close —
// or at once, if the staging buffer has grown past walRetainedBuf.

// Page trailer: the last PageTrailerSize bytes of every page hold the
// LSN of the WAL record that last touched it. Page-structure code must
// treat PageDataSize, not PageSize, as the usable payload.
const (
	PageTrailerSize = 8
	PageDataSize    = PageSize - PageTrailerSize
)

// PageLSN reads the page-LSN trailer.
func PageLSN(d []byte) uint64 {
	return binary.LittleEndian.Uint64(d[PageDataSize:PageSize])
}

// SetPageLSN stamps the page-LSN trailer.
func SetPageLSN(d []byte, lsn uint64) {
	binary.LittleEndian.PutUint64(d[PageDataSize:PageSize], lsn)
}

// WALFileName is the log's file name inside the database directory.
const WALFileName = "wal.log"

// WAL record types.
const (
	WALBeforeImage     byte = 1 // first touch of a page by a txn: pre-modification image
	WALAfterImage      byte = 2 // txn finish: post-modification image
	WALCommit          byte = 3 // statement finished, effects kept; payload: owning MVCC txn id
	WALCheckpointBegin byte = 4
	WALCheckpointEnd   byte = 5 // payload: redo scan start LSN
	WALTxnCommit       byte = 6 // MVCC transaction committed; payload: txn id
)

const (
	walMagic      = 0x57414c31 // "WAL1"
	walVersion    = 1
	walHeaderSize = 16
	// Record frame: u32 body length | u32 CRC32-IEEE(body) | body.
	// Body: u64 LSN | u64 txn | u8 type | payload.
	walFrameSize  = 8
	walBodyFixed  = 17
	walMaxBody    = walBodyFixed + 2 + 255 + 4 + 8 + PageSize // image record upper bound
	walCompactMin = 1 << 20                                   // compact the log at checkpoint once it exceeds this
)

// WALFile is the seam between the WAL and the OS file. Production code
// uses *os.File opened O_APPEND; the walfault package substitutes a
// wrapper whose fsync can be made to fail.
type WALFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

func defaultWALOpen(path string) (WALFile, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
}

// WALRecord is a decoded log record, as returned by ReadWALRecords.
type WALRecord struct {
	LSN       uint64
	Txn       uint64
	Type      byte
	File      string // base name of the page file (image records)
	Page      uint32
	PrevLSN   uint64 // page trailer value before this record's txn touched it
	Image     []byte // PageSize bytes for image records
	ScanStart uint64 // checkpoint-end payload
	Owner     uint64 // MVCC txn id (statement-commit and txn-commit records)
}

// WALLatencyBuckets mirrors monitor.NumLatencyBuckets: log2-ns buckets
// so the engine can convert fsync latencies straight into a
// monitor.LatencyCounts for the telemetry exporter.
const WALLatencyBuckets = 48

func walLatencyBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= WALLatencyBuckets {
		b = WALLatencyBuckets - 1
	}
	return b
}

// WALStats is a point-in-time snapshot of the log's counters.
type WALStats struct {
	Bytes      int64 // bytes appended to the log file
	Fsyncs     int64 // fsync calls issued
	Appends    int64 // records appended
	FsyncNanos int64 // cumulative wallclock nanoseconds inside fsync
	DurableLSN uint64
}

// WALOptions tunes OpenWAL.
type WALOptions struct {
	// OpenFile substitutes the log file implementation (test seam).
	OpenFile func(string) (WALFile, error)
}

// WAL is the write-ahead log. One instance per database directory.
type WAL struct {
	path     string
	openFile func(string) (WALFile, error)

	// mu guards the append state. Lock order: ioMu before mu, never
	// inverted.
	mu      sync.Mutex
	buf     []byte
	spare   []byte
	bufEnd  uint64 // LSN of the last staged record
	nextLSN uint64
	nextTxn uint64
	active  map[uint64]uint64 // txn id -> first LSN (for fuzzy checkpoint scan start)
	err     error
	closed  bool

	// ioMu serializes file writes, fsyncs and log compaction; its
	// queue of committers is what batches them. f is nil once closed.
	ioMu      sync.Mutex
	f         WALFile
	fileBytes int64

	durable atomic.Uint64

	// ddlGate serializes DDL (writer) against transactions (readers):
	// every WalTxn holds the read side for its lifetime, so DDL sees a
	// quiesced log and can rebuild files without redo ever replaying a
	// stale pre-rebuild record onto them. A WalTxn is opened only after
	// every lock its owner may wait for, so the writer waits on no cycle.
	ddlGate sync.RWMutex

	bytes      atomic.Int64
	fsyncs     atomic.Int64
	appends    atomic.Int64
	fsyncNanos atomic.Int64
	fsyncHist  [WALLatencyBuckets]atomic.Int64
}

// OpenWAL opens (creating if needed) the log at path. Any torn tail
// beyond the last valid record is truncated away — recovery has already
// run by the time the engine calls this.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	open := opts.OpenFile
	if open == nil {
		open = defaultWALOpen
	}
	recs, base, validLen, err := ReadWALRecords(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		if err := ResetWAL(path, 1); err != nil {
			return nil, err
		}
		base, validLen = 1, walHeaderSize
		recs = nil
	}
	if st, err := os.Stat(path); err == nil && st.Size() > validLen {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}
	next := base
	if n := len(recs); n > 0 {
		next = recs[n-1].LSN + 1
	}
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	// Make the (possibly truncated) prefix durable before acking
	// anything against it.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{
		path:      path,
		openFile:  open,
		nextLSN:   next,
		active:    make(map[uint64]uint64),
		f:         f,
		fileBytes: validLen,
	}
	w.bufEnd = next - 1
	w.durable.Store(next - 1)
	return w, nil
}

// DurableLSN returns the highest LSN known to be fsynced.
func (w *WAL) DurableLSN() uint64 { return w.durable.Load() }

// Stats snapshots the log counters.
func (w *WAL) Stats() WALStats {
	if w == nil {
		return WALStats{}
	}
	return WALStats{
		Bytes:      w.bytes.Load(),
		Fsyncs:     w.fsyncs.Load(),
		Appends:    w.appends.Load(),
		FsyncNanos: w.fsyncNanos.Load(),
		DurableLSN: w.durable.Load(),
	}
}

// FsyncLatency returns the fsync latency histogram (log2-ns buckets,
// same scheme as the monitor's) and the cumulative nanosecond sum.
func (w *WAL) FsyncLatency() (buckets [WALLatencyBuckets]int64, sumNanos int64) {
	if w == nil {
		return
	}
	for i := range w.fsyncHist {
		buckets[i] = w.fsyncHist[i].Load()
	}
	return buckets, w.fsyncNanos.Load()
}

func (w *WAL) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// errWALClosed is returned by appends and durability waits on a closed
// log.
var errWALClosed = errors.New("storage: wal closed")

// Err returns the sticky log failure, if any. A failed log refuses all
// further appends: better to stop acking commits than to ack ones that
// can never become durable.
func (w *WAL) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// appendLocked encodes a record into the staging buffer. Caller holds
// w.mu and has already claimed lsn from w.nextLSN. u64p is the
// single-u64 payload of commit/checkpoint-end records (owner or scan
// start).
func (w *WAL) appendLocked(lsn, txn uint64, typ byte, file string, page uint32, prev uint64, image []byte, u64p uint64) {
	bodyLen := walBodyFixed
	switch typ {
	case WALBeforeImage, WALAfterImage:
		bodyLen += 2 + len(file) + 4 + 8 + PageSize
	case WALCheckpointEnd, WALCommit, WALTxnCommit:
		bodyLen += 8
	}
	need := walFrameSize + bodyLen
	start := len(w.buf)
	if cap(w.buf)-start < need {
		nb := make([]byte, start, (start+need)*2+4096)
		copy(nb, w.buf)
		w.buf = nb
	}
	w.buf = w.buf[:start+need]
	b := w.buf[start:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(bodyLen))
	body := b[walFrameSize:]
	binary.LittleEndian.PutUint64(body[0:8], lsn)
	binary.LittleEndian.PutUint64(body[8:16], txn)
	body[16] = typ
	p := body[walBodyFixed:]
	switch typ {
	case WALBeforeImage, WALAfterImage:
		binary.LittleEndian.PutUint16(p[0:2], uint16(len(file)))
		copy(p[2:], file)
		o := 2 + len(file)
		binary.LittleEndian.PutUint32(p[o:o+4], page)
		binary.LittleEndian.PutUint64(p[o+4:o+12], prev)
		copy(p[o+12:], image)
	case WALCheckpointEnd, WALCommit, WALTxnCommit:
		binary.LittleEndian.PutUint64(p[0:8], u64p)
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(body))
	w.bufEnd = lsn
	w.appends.Add(1)
}

// flushNow makes everything staged durable, unless minLSN > 0 already
// is. It is the whole of group commit: the caller at the head of ioMu's
// queue writes and fsyncs every record staged so far, and the callers
// queued behind it find their LSN durable here and return without I/O.
func (w *WAL) flushNow(minLSN uint64) error {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if minLSN > 0 && w.durable.Load() >= minLSN {
		return nil
	}
	if w.f == nil {
		return errWALClosed
	}
	return w.flushLocked()
}

// flushLocked writes the staged buffer and fsyncs if anything new needs
// durability. Caller holds ioMu and the file is open.
func (w *WAL) flushLocked() error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	buf := w.buf
	if w.spare != nil {
		w.buf = w.spare[:0]
		w.spare = nil
	} else {
		w.buf = nil
	}
	target := w.bufEnd
	w.mu.Unlock()
	if len(buf) > 0 {
		if _, err := w.f.Write(buf); err != nil {
			err = fmt.Errorf("storage: wal write: %w", err)
			w.fail(err)
			return err
		}
		w.bytes.Add(int64(len(buf)))
		w.fileBytes += int64(len(buf))
	}
	if target > w.durable.Load() {
		start := time.Now()
		if err := w.f.Sync(); err != nil {
			err = fmt.Errorf("storage: wal fsync: %w", err)
			w.fail(err)
			return err
		}
		d := time.Since(start)
		w.fsyncs.Add(1)
		w.fsyncNanos.Add(d.Nanoseconds())
		w.fsyncHist[walLatencyBucket(d)].Add(1)
		w.durable.Store(target)
	}
	w.mu.Lock()
	if w.spare == nil && buf != nil && cap(buf) <= walRetainedBuf {
		w.spare = buf[:0]
	}
	w.mu.Unlock()
	return nil
}

// walRetainedBuf caps the staging buffer a flush keeps for reuse. Group
// commits stage a few pages each and recycle their buffer forever; a
// larger one — a bulk load's, a vacuum pass's, an index build's unit —
// is left to the collector instead of pinning its high-water size for
// the life of the process. It also bounds what a unit finished without
// a wait may leave staged.
const walRetainedBuf = 256 << 10

// syncTo makes everything up to lsn durable. The buffer pool calls this
// as its WAL-before-data barrier ahead of every page write-back.
func (w *WAL) syncTo(lsn uint64) error {
	if w == nil || lsn == 0 || w.durable.Load() >= lsn {
		return nil
	}
	return w.flushNow(lsn)
}

// Sync forces the whole staged log to disk.
func (w *WAL) Sync() error {
	if w == nil {
		return nil
	}
	return w.flushNow(0)
}

// WaitDurable blocks until lsn is durable, flushing the log itself
// unless a committer ahead of it on ioMu already did.
func (w *WAL) WaitDurable(lsn uint64) error {
	if w == nil || lsn == 0 || w.durable.Load() >= lsn {
		return nil
	}
	return w.flushNow(lsn)
}

// Close refuses further appends, makes everything staged durable and
// closes the file. A later WaitDurable for a record that did not make
// it returns errWALClosed without touching the file.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.f == nil {
		return nil
	}
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	err := w.flushLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// BeginExclusive blocks until every open transaction finishes and
// holds out new ones until the returned release func is called. DDL
// runs under this gate so file rebuilds never race a logged txn.
func (w *WAL) BeginExclusive() func() {
	if w == nil {
		return func() {}
	}
	w.ddlGate.Lock()
	return w.ddlGate.Unlock
}

// WalTxn is one logged transaction. A nil *WalTxn is valid and inert,
// so callers need not branch on whether a WAL is attached.
type WalTxn struct {
	w       *WAL
	id      uint64
	owner   uint64 // MVCC txn id this statement belongs to; 0 = none
	done    bool
	touched map[pageKey]walTouch
	order   []pageKey // touch order, for deterministic after-image LSNs
}

// SetOwner stamps the MVCC transaction id that owns this statement; it
// rides the statement's WALCommit record so recovery can tell which
// MVCC transactions have effects in the redo log.
func (t *WalTxn) SetOwner(owner uint64) {
	if t != nil {
		t.owner = owner
	}
}

type walTouch struct {
	f    *File
	page uint32
}

// Begin opens a logged transaction. It holds the DDL gate's read side
// until Commit.
func (w *WAL) Begin() *WalTxn {
	if w == nil {
		return nil
	}
	w.ddlGate.RLock()
	w.mu.Lock()
	w.nextTxn++
	id := w.nextTxn
	w.mu.Unlock()
	return &WalTxn{w: w, id: id, touched: make(map[pageKey]walTouch)}
}

// captureBefore logs a full-page before-image the first time t touches
// a page, stamps the page trailer with the new LSN, and marks the page
// dirty. Idempotent per (txn, page).
func (t *WalTxn) captureBefore(p *Page) error {
	if t == nil || t.done {
		return nil
	}
	k := p.fr.key
	if _, ok := t.touched[k]; ok {
		return nil
	}
	w := t.w
	prev := PageLSN(p.Data[:PageSize])
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return errWALClosed
	}
	lsn := w.nextLSN
	w.nextLSN++
	if _, ok := w.active[t.id]; !ok {
		w.active[t.id] = lsn
	}
	w.appendLocked(lsn, t.id, WALBeforeImage, p.f.base, k.page, prev, p.Data[:PageSize], 0)
	w.mu.Unlock()
	SetPageLSN(p.Data[:PageSize], lsn)
	p.fr.lsn.Store(lsn)
	p.MarkDirty()
	t.touched[k] = walTouch{f: p.f, page: k.page}
	t.order = append(t.order, k)
	return nil
}

// Commit logs after-images for every touched page plus a finish record,
// then (if wait) blocks until the finish record is durable. With
// wait=false the records are only staged and ride the next flush —
// unless the staging buffer has grown past walRetainedBuf (a bulk
// load's or a vacuum pass's unit), in which case the unit flushes it
// at once, so records nobody waits for never pin more than that.
// Rollback paths call this too with wait=false: the engine keeps a
// finished transaction's effects in place either way, so recovery must
// as well.
// Must be called before the statement releases its write gate, so that
// a later transaction's images can never be durable while this one
// still looks in-flight.
func (t *WalTxn) Commit(wait bool) error {
	if t == nil || t.done {
		return nil
	}
	t.done = true
	w := t.w
	defer w.ddlGate.RUnlock()
	if len(t.touched) == 0 {
		return nil
	}
	var firstErr error
	for _, k := range t.order {
		tp := t.touched[k]
		p, err := tp.f.GetPage(tp.page)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		w.mu.Lock()
		lsn := w.nextLSN
		w.nextLSN++
		SetPageLSN(p.Data[:PageSize], lsn)
		w.appendLocked(lsn, t.id, WALAfterImage, tp.f.base, tp.page, 0, p.Data[:PageSize], 0)
		w.mu.Unlock()
		p.fr.lsn.Store(lsn)
		p.MarkDirty()
		p.Release()
	}
	w.mu.Lock()
	clsn := w.nextLSN
	w.nextLSN++
	w.appendLocked(clsn, t.id, WALCommit, "", 0, 0, nil, t.owner)
	delete(w.active, t.id)
	err := w.err
	wait = wait || len(w.buf) > walRetainedBuf
	w.mu.Unlock()
	if firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return firstErr
	}
	if wait {
		return w.WaitDurable(clsn)
	}
	return nil
}

// CommitTxn logs the MVCC commit record for owner and, if wait, blocks
// until it is durable; otherwise the record is only staged. This is the
// commit point of a multi-statement transaction: recovery treats an
// owner with no durable WALTxnCommit as aborted, so its versions stay
// invisible after a crash.
func (w *WAL) CommitTxn(owner uint64, wait bool) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return errWALClosed
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.appendLocked(lsn, 0, WALTxnCommit, "", 0, 0, nil, owner)
	w.mu.Unlock()
	if wait {
		return w.WaitDurable(lsn)
	}
	return nil
}

// CheckpointBegin logs a begin-checkpoint record and returns the redo
// scan start: the oldest LSN any in-flight transaction might still
// need, or the checkpoint's own LSN when the log is quiet.
func (w *WAL) CheckpointBegin() uint64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	lsn := w.nextLSN
	w.nextLSN++
	w.appendLocked(lsn, 0, WALCheckpointBegin, "", 0, 0, nil, 0)
	scan := lsn
	for _, first := range w.active {
		if first < scan {
			scan = first
		}
	}
	w.mu.Unlock()
	return scan
}

// CheckpointEnd logs the end-checkpoint record carrying scanStart,
// forces it durable, and opportunistically compacts the log.
func (w *WAL) CheckpointEnd(scanStart uint64) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	lsn := w.nextLSN
	w.nextLSN++
	w.appendLocked(lsn, 0, WALCheckpointEnd, "", 0, 0, nil, scanStart)
	w.mu.Unlock()
	if err := w.flushNow(lsn); err != nil {
		return err
	}
	w.maybeCompact()
	return nil
}

// maybeCompact truncates the log down to a fresh header when nothing in
// it can matter anymore: no transaction in flight, nothing staged,
// everything durable. The caller has just checkpointed, so every page
// image the old records could redo is already on disk.
func (w *WAL) maybeCompact() {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.fileBytes < walCompactMin {
		return
	}
	w.mu.Lock()
	ok := len(w.active) == 0 && len(w.buf) == 0 &&
		w.err == nil && !w.closed && w.durable.Load() == w.bufEnd
	base := w.nextLSN
	w.mu.Unlock()
	if !ok {
		return
	}
	if err := ResetWAL(w.path, base); err != nil {
		w.fail(err)
		return
	}
	nf, err := w.openFile(w.path)
	if err != nil {
		w.fail(err)
		return
	}
	w.f.Close()
	w.f = nf
	w.fileBytes = walHeaderSize
}

// ResetWAL atomically replaces the log at path with an empty one whose
// records will start at nextLSN. Used after recovery has replayed the
// old log, and by checkpoint compaction.
func ResetWAL(path string, nextLSN uint64) error {
	hdr := make([]byte, walHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], nextLSN)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadWALRecords decodes the log at path, stopping cleanly at the first
// torn or corrupt record — a crash mid-append leaves exactly such a
// tail, and everything before it is still trustworthy. Returns the
// decoded records, the header's base LSN, and the byte offset of the
// end of the last valid record.
func ReadWALRecords(path string) (recs []WALRecord, baseLSN uint64, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(data) < walHeaderSize {
		return nil, 0, 0, fmt.Errorf("storage: wal %s: short header", path)
	}
	if binary.LittleEndian.Uint32(data[0:4]) != walMagic {
		return nil, 0, 0, fmt.Errorf("storage: wal %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != walVersion {
		return nil, 0, 0, fmt.Errorf("storage: wal %s: unsupported version %d", path, v)
	}
	baseLSN = binary.LittleEndian.Uint64(data[8:16])
	off := int64(walHeaderSize)
	want := baseLSN
	for {
		rec, next, ok := decodeWALRecord(data, off, want)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off = next
		want = rec.LSN + 1
	}
	return recs, baseLSN, off, nil
}

// decodeWALRecord validates and decodes one record at off. wantLSN
// guards against stale bytes beyond a logical truncation point: LSNs
// must be exactly sequential.
func decodeWALRecord(data []byte, off int64, wantLSN uint64) (WALRecord, int64, bool) {
	var rec WALRecord
	if int64(len(data))-off < walFrameSize {
		return rec, 0, false
	}
	bodyLen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if bodyLen < walBodyFixed || bodyLen > walMaxBody {
		return rec, 0, false
	}
	if int64(len(data))-off-walFrameSize < bodyLen {
		return rec, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	body := data[off+walFrameSize : off+walFrameSize+bodyLen]
	if crc32.ChecksumIEEE(body) != crc {
		return rec, 0, false
	}
	rec.LSN = binary.LittleEndian.Uint64(body[0:8])
	if rec.LSN != wantLSN {
		return rec, 0, false
	}
	rec.Txn = binary.LittleEndian.Uint64(body[8:16])
	rec.Type = body[16]
	p := body[walBodyFixed:]
	switch rec.Type {
	case WALBeforeImage, WALAfterImage:
		if len(p) < 2 {
			return rec, 0, false
		}
		nameLen := int(binary.LittleEndian.Uint16(p[0:2]))
		if len(p) != 2+nameLen+4+8+PageSize {
			return rec, 0, false
		}
		rec.File = string(p[2 : 2+nameLen])
		o := 2 + nameLen
		rec.Page = binary.LittleEndian.Uint32(p[o : o+4])
		rec.PrevLSN = binary.LittleEndian.Uint64(p[o+4 : o+12])
		rec.Image = p[o+12:]
	case WALCheckpointBegin:
		if len(p) != 0 {
			return rec, 0, false
		}
	case WALCommit, WALTxnCommit:
		// Pre-MVCC logs carried no payload on WALCommit; accept both.
		switch len(p) {
		case 0:
		case 8:
			rec.Owner = binary.LittleEndian.Uint64(p[0:8])
		default:
			return rec, 0, false
		}
	case WALCheckpointEnd:
		if len(p) != 8 {
			return rec, 0, false
		}
		rec.ScanStart = binary.LittleEndian.Uint64(p[0:8])
	default:
		return rec, 0, false
	}
	return rec, off + walFrameSize + bodyLen, true
}
