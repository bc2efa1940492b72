package image

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
)

// The store's write-ahead journal: an append-only sequence of checksummed
// frames, one per state transition (save / quarantine / delete). A Save is
// acknowledged only once its journal record is fsynced, so replaying
// MANIFEST + journal on open reconstructs every acknowledged transition.
//
// Frame format (little-endian):
//
//	u32 payload length | u64 crc64(payload) | payload
//
// Reading distinguishes two failure shapes:
//
//   - a *torn tail* — the header or payload runs past EOF — is the
//     expected artifact of a crash mid-append: replay stops cleanly at the
//     last complete frame and the tail is truncated away (repaired);
//   - a *corrupt frame* — full-length but failing its checksum, or a
//     payload that does not decode — is bit rot, surfaced as the typed
//     ErrCorrupt so the store can quarantine the journal and rebuild its
//     state from the image files themselves.
const (
	frameHeaderLen  = 12      // u32 length + u64 crc64
	maxFramePayload = 1 << 20 // sanity cap; records are tens of bytes
)

// journalOp is one store state transition.
type journalOp byte

const (
	opSave       journalOp = 1 // gen becomes active; previous active becomes last-known-good
	opQuarantine journalOp = 2 // active gen moved aside; last-known-good promoted
	opDelete     journalOp = 3 // every live generation removed (tombstone keeps numbering)
)

// journalRecord is one journal entry: the image's name, the generation
// the op applies to, and (for saves) the payload's CRC64 content
// checksum.
type journalRecord struct {
	Op   journalOp
	Name string
	Gen  uint64
	Sum  uint64
}

// encode serializes the record payload (without framing).
func (r journalRecord) encode() []byte {
	buf := make([]byte, 0, 1+4+len(r.Name)+8+8)
	buf = append(buf, byte(r.Op))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Name)))
	buf = append(buf, r.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, r.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, r.Sum)
	return buf
}

// decodeJournalRecord parses one frame payload.
func decodeJournalRecord(p []byte) (journalRecord, error) {
	var r journalRecord
	if len(p) < 1+4 {
		return r, fmt.Errorf("%w: journal record too short (%d bytes)", ErrCorrupt, len(p))
	}
	r.Op = journalOp(p[0])
	if r.Op != opSave && r.Op != opQuarantine && r.Op != opDelete {
		return r, fmt.Errorf("%w: journal record has unknown op %d", ErrCorrupt, p[0])
	}
	n := binary.LittleEndian.Uint32(p[1:5])
	rest := p[5:]
	if uint64(n) > uint64(len(rest)) {
		return r, fmt.Errorf("%w: journal record name length %d exceeds payload", ErrCorrupt, n)
	}
	r.Name = string(rest[:n])
	rest = rest[n:]
	if len(rest) != 16 {
		return r, fmt.Errorf("%w: journal record trailing length %d, want 16", ErrCorrupt, len(rest))
	}
	r.Gen = binary.LittleEndian.Uint64(rest[:8])
	r.Sum = binary.LittleEndian.Uint64(rest[8:])
	return r, nil
}

// appendFrame appends one checksummed frame wrapping payload to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// readFrames walks data frame by frame. It returns the decoded payloads,
// the byte offset of the end of the last complete frame (the "clean
// length" a torn tail should be truncated to), and an ErrCorrupt-typed
// error if a full-length frame fails its checksum. A torn tail — header
// or payload running past EOF — is not an error: replay stops at the
// clean length.
func readFrames(data []byte) (payloads [][]byte, cleanLen int, err error) {
	off := 0
	for {
		rem := data[off:]
		if len(rem) == 0 {
			return payloads, off, nil
		}
		if len(rem) < frameHeaderLen {
			return payloads, off, nil // torn header
		}
		n := binary.LittleEndian.Uint32(rem[:4])
		want := binary.LittleEndian.Uint64(rem[4:12])
		if uint64(n) > maxFramePayload || int(n) > len(rem)-frameHeaderLen {
			return payloads, off, nil // torn payload (or a length flip that reads as one)
		}
		payload := rem[frameHeaderLen : frameHeaderLen+int(n)]
		if crc64.Checksum(payload, crcTable) != want {
			return payloads, off, fmt.Errorf("%w: journal frame at offset %d fails checksum", ErrCorrupt, off)
		}
		payloads = append(payloads, payload)
		off += frameHeaderLen + int(n)
	}
}

// decodeJournal parses a whole journal file: records up to the last
// complete frame, the clean length, and an ErrCorrupt error for bit rot
// (checksum failure or an undecodable record).
func decodeJournal(data []byte) (recs []journalRecord, cleanLen int, err error) {
	payloads, cleanLen, err := readFrames(data)
	if err != nil {
		return nil, cleanLen, err
	}
	for _, p := range payloads {
		r, derr := decodeJournalRecord(p)
		if derr != nil {
			return nil, cleanLen, derr
		}
		recs = append(recs, r)
	}
	return recs, cleanLen, nil
}

// --- durable file helpers ----------------------------------------------------

// readFileInto reads the whole file at path into buf's backing array,
// growing it when the file does not fit, and returns the bytes read. It
// reads to EOF, so a file that changes size after the stat is still read
// whole. On error it returns what it read, so the caller can keep the
// (possibly grown) buffer.
func readFileInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf[:0], err
	}
	// MinRead spare bytes let the read that returns EOF land without a
	// grow.
	b := bytes.NewBuffer(slices.Grow(buf[:0], int(fi.Size())+bytes.MinRead))
	_, err = b.ReadFrom(f)
	return b.Bytes(), err
}

// writeFileSync writes data to path and fsyncs the file before closing,
// so a rename that follows moves fully-durable bytes into place.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendFileSync appends data to path (creating it if needed) and fsyncs.
func appendFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendFileTorn appends data without fsync — the simulated-kill torn
// write. Errors are ignored: the "process" is dying anyway.
func appendFileTorn(path string, data []byte) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	_, _ = f.Write(data)
	_ = f.Close()
}

// syncDir fsyncs a directory so a rename/remove inside it survives power
// loss. Best-effort: some filesystems reject directory fsync; the store
// still has the journal to recover from.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// removeSynced removes path and fsyncs its parent directory.
func removeSynced(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}
