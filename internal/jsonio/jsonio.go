// Package jsonio is the shared schema-validating JSON persistence layer.
// The predictor manifest (internal/models), the model envelope
// (internal/mlkit), the fleet coordinator's wire encoding and state, the
// durable store's snapshots, the placement plans and the observability
// documents all share one pattern: a value is
// validated before it is encoded (an invalid document is never written)
// and immediately after it is decoded (an invalid document is never
// accepted), with indented, newline-terminated JSON on disk so fixtures
// diff cleanly.
package jsonio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Validator is implemented by documents that carry schema invariants.
// Both Encode and Decode call it, so a malformed document can neither
// enter nor leave the JSON form.
type Validator interface {
	Validate() error
}

// validate runs v's own Validate when it has one.
func validate(v interface{}) error {
	if val, ok := v.(Validator); ok {
		return val.Validate()
	}
	return nil
}

// Marshal validates v (when it is a Validator) and renders it as
// indented JSON with a trailing newline.
func Marshal(v interface{}) ([]byte, error) {
	if err := validate(v); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Unmarshal parses data into v and then validates it.
func Unmarshal(data []byte, v interface{}) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	return validate(v)
}

// Encode writes Marshal's output to w — the streaming form used by the
// coordinator's HTTP transport.
func Encode(w io.Writer, v interface{}) error {
	data, err := Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Decode reads all of r into v and validates it. The reader is consumed
// fully; trailing garbage after the document is an error.
func Decode(r io.Reader, v interface{}) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("jsonio: trailing data after document")
	}
	return validate(v)
}

// WriteFile validates v and writes it to path as indented JSON.
func WriteFile(path string, v interface{}) error {
	data, err := Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile parses and validates a document written by WriteFile.
func ReadFile(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Unmarshal(data, v); err != nil {
		return fmt.Errorf("jsonio: parsing %s: %w", path, err)
	}
	return nil
}
