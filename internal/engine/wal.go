package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/index"
)

// Durability: when Config.WALDir is set, every SEALED epoch — the initial
// build/load, each flush, each compaction — is persisted as a full engine
// stream `epoch-<n>.eng` in that directory before the in-memory swap
// (write to a temp file, fsync, atomic rename, fsync the directory).
// Recovery takes the newest file that parses, so a crash mid-write (torn
// temp file, or a garbage or truncated epoch file) falls back to the last
// durable epoch; a file the file system cannot open or read, or one an
// earlier build wrote with a layout this one refuses, stops the open
// instead. Each seal keeps its own file and the one before it; older ones
// are pruned opportunistically.
//
// Ingest/Delete epochs between seals are deliberately NOT persisted: the
// memtable is the volatile tail, and a crash rolls it back to the last
// sealed epoch — the classic LSM trade, made explicit here.

const epochFilePattern = "epoch-*.eng"

func epochFileName(epoch uint64) string {
	return fmt.Sprintf("epoch-%016d.eng", epoch)
}

// openWAL attaches the configured WAL directory at Build/Load time: if it
// holds a recoverable epoch, that state replaces the freshly built one
// (the directory is the durable truth across restarts); otherwise the
// current state is sealed into it as the first durable epoch.
func (e *Engine) openWAL() error {
	if e.cfg.WALDir == "" {
		return nil
	}
	if err := mkdirDurable(e.cfg.WALDir); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, err := recoverNewest(e.cfg)
	if err != nil {
		return err
	}
	if st != nil {
		old := e.cur.Load()
		e.cur.Store(st)
		old.unpin()
		e.durable = st.epoch
		return nil
	}
	return e.persistLocked(e.cur.Load())
}

// mkdirDurable creates dir and any missing parents, and fsyncs the parent
// of each directory it created: until then the new entries, and with them
// every epoch sealed inside, could vanish in a crash.
func mkdirDurable(dir string) error {
	var created []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) || filepath.Dir(d) == d {
			break
		}
		created = append(created, d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range created {
		if err := syncDir(filepath.Dir(d)); err != nil {
			return err
		}
	}
	return nil
}

// recoverNewest loads the newest parseable epoch file, newest first, or
// returns nil when none parses. Two failures are errors, not torn writes,
// because falling back past them would restart from an older state, or
// from none, and lose what the file holds: the file system refusing to
// open or read a file (a *fs.PathError: permissions, I/O), and a segment
// whose forward index is in the earlier text order.
func recoverNewest(cfg Config) (*state, error) {
	names, err := filepath.Glob(filepath.Join(cfg.WALDir, epochFilePattern))
	if err != nil || len(names) == 0 {
		return nil, nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return nil, fmt.Errorf("engine: WAL epoch %s cannot be opened: %w", name, err)
		}
		st, err := loadState(f, cfg)
		f.Close()
		if err == nil {
			return st, nil
		}
		if errors.Is(err, index.ErrTextOrderForward) {
			return nil, fmt.Errorf("engine: WAL epoch %s was written by an earlier build: %w", name, err)
		}
		if pe := (*fs.PathError)(nil); errors.As(err, &pe) {
			return nil, fmt.Errorf("engine: WAL epoch %s cannot be read: %w", name, pe)
		}
	}
	return nil, nil
}

// persistLocked seals a state into the WAL directory (no-op without one).
// Called with e.mu held, BEFORE the state is swapped in: on any error the
// caller keeps the old state, so a failed seal never publishes an epoch
// that is not durable.
func (e *Engine) persistLocked(st *state) error {
	if e.cfg.WALDir == "" {
		return nil
	}
	f, err := os.CreateTemp(e.cfg.WALDir, "epoch-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := saveState(st, f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	final := filepath.Join(e.cfg.WALDir, epochFileName(st.epoch))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is durable only once the directory is: until then a crash
	// may leave the old name, and the epoch must not count as sealed, nor
	// the files it would replace be pruned.
	if err := syncDir(e.cfg.WALDir); err != nil {
		os.Remove(final)
		return err
	}
	pruneEpochs(e.cfg.WALDir, final)
	e.durable = st.epoch
	return nil
}

// syncDir fsyncs a directory, so the renames in it survive a crash. A
// variable, so a test can make it fail.
var syncDir = func(dir string) error {
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

// pruneEpochs keeps the epoch file just written and the one before it (a
// fallback against a torn newest) and removes the older ones. Files that
// sort after the one just written are left alone: recovery could not
// parse them, and the prune must never take the new file for the stale
// one. Best-effort: errors are ignored — a failed prune costs disk, not
// correctness.
func pruneEpochs(dir, written string) {
	names, err := filepath.Glob(filepath.Join(dir, epochFilePattern))
	if err != nil {
		return
	}
	sort.Strings(names)
	for _, name := range names[:max(sort.SearchStrings(names, written)-1, 0)] {
		os.Remove(name)
	}
}
