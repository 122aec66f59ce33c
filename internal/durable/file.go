// Package durable owns the two conventions shared by everything this system
// leaves on disk: the file container (one JSON header line, then a gob
// payload, replaced atomically) and the 64-bit content digest the headers
// pin. docs/ARCHITECTURE.md "On-disk state" describes both. The package
// imports nothing from this module.
package durable

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Format identifies one kind of file and names the errors its loader
// returns, so that callers keep matching each format's own sentinels.
type Format struct {
	// Magic and Version open every header line.
	Magic   string
	Version int
	// Corrupt marks a file that is not a well-formed file of this format;
	// Unsupported one whose header carries Magic and another Version.
	Corrupt, Unsupported error
}

// Corruptf returns f.Corrupt wrapped with the file's path and what is wrong
// with it, for the checks a format makes on what Load decoded.
func (f Format) Corruptf(path, format string, a ...any) error {
	return fmt.Errorf("%w: %s: %s", f.Corrupt, path, fmt.Sprintf(format, a...))
}

// MaxHeader bounds the header line, newline included: Save refuses to write
// a longer one and Load gives up on a file without a newline that early
// instead of reading all of it. Today's largest header is under 1 KiB.
const MaxHeader = 1 << 20

// headerLine renders the header line: magic and version first, then the
// fields header marshals to, which must be a JSON object.
func (f Format) headerLine(header any) ([]byte, error) {
	fields, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	if len(fields) < 2 || fields[0] != '{' {
		return nil, fmt.Errorf("header marshals to %s, not to an object", fields)
	}
	magic, _ := json.Marshal(f.Magic) // a string always marshals
	line := fmt.Appendf(nil, `{"magic":%s,"version":%d`, magic, f.Version)
	if len(fields) > 2 {
		line = append(append(line, ','), fields[1:len(fields)-1]...)
	}
	if line = append(line, '}', '\n'); len(line) > MaxHeader {
		return nil, fmt.Errorf("header line of %d bytes, limit %d", len(line), MaxHeader)
	}
	return line, nil
}

// Save writes the header line and the gob encoding of payload to a temporary
// sibling of path, flushes and fsyncs it and renames it over path: a reader
// sees the previous file or the new one, never a torn one, and a failed Save
// leaves the previous file and no sibling behind.
func Save(path string, f Format, header, payload any) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("saving %s %s: %w", f.Magic, path, err)
		}
	}()
	line, err := f.headerLine(header)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// Every step runs, in this order, whatever the one before it returned;
	// an error from any of them drops the temporary file instead.
	w := bufio.NewWriter(tmp)
	_, err = w.Write(line)
	err = errors.Join(err, gob.NewEncoder(w).Encode(payload), w.Flush(), tmp.Sync(), tmp.Close())
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads the file at path into header and payload (both pointers). A
// missing file is the error of os.Open (fs.ErrNotExist) and another version
// under the right magic is f.Unsupported. Everything else it refuses is
// f.Corrupt: no newline within MaxHeader bytes, a line that is not JSON or
// carries another magic, a header that is not byte for byte the line Save
// writes for the values it decodes to (a missing, unknown, reordered or
// re-spelled field), an undecodable payload, bytes after the payload. A
// header with a Validate method is asked before the payload is decoded.
func Load(path string, f Format, header, payload any) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	r := bufio.NewReader(file)
	var line []byte
	for {
		part, err := r.ReadSlice('\n')
		line = append(line, part...)
		if err == nil && len(line) <= MaxHeader {
			break
		}
		if err != bufio.ErrBufferFull || len(line) > MaxHeader {
			return f.Corruptf(path, "no header line within %d bytes", MaxHeader)
		}
	}
	var id struct {
		Magic   string `json:"magic"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(line, &id); err != nil {
		return f.Corruptf(path, "bad header: %v", err)
	}
	if id.Magic != f.Magic {
		return f.Corruptf(path, "magic %q", id.Magic)
	}
	if id.Version != f.Version {
		return fmt.Errorf("%w: %s: version %d, supported %d", f.Unsupported, path, id.Version, f.Version)
	}
	if err := json.Unmarshal(line, header); err != nil {
		return f.Corruptf(path, "bad header: %v", err)
	}
	if canonical, err := f.headerLine(header); err != nil || !bytes.Equal(line, canonical) {
		return f.Corruptf(path, "header is not the line its values are saved as")
	}
	if v, ok := header.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := gob.NewDecoder(r).Decode(payload); err != nil {
		return f.Corruptf(path, "bad payload: %v", err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return f.Corruptf(path, "data after the payload")
	}
	return nil
}
