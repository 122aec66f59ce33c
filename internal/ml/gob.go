package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Gob codecs of the scaler and the pipeline, and the two helpers every model
// package's codec is made of. A model's exported fields are its payload
// (docs/ARCHITECTURE.md "On-disk state"): GobEncode encodes the value through
// a method-less type of the same struct, GobDecode decodes into one and then
// checks what Predict indexes by. The concrete types are registered under
// stable names, not Go import paths; interface-typed fields decode only when
// the concrete type's package is linked in, which importing internal/persist
// ensures.

func init() {
	gob.RegisterName("ffr/ml.StandardScaler", &StandardScaler{})
	gob.RegisterName("ffr/ml.Pipeline", &Pipeline{})
}

// GobState encodes a model's wire value; the model packages share it.
func GobState(wire any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("ml: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// UngobState decodes a GobState byte slice into the wire value, then asks
// check (when non-nil) whether Predict can index what arrived.
func UngobState(data []byte, wire any, check func() error) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(wire); err != nil {
		return fmt.Errorf("ml: decoding state: %w", err)
	}
	if check != nil {
		return check()
	}
	return nil
}

type (
	scalerWire   StandardScaler
	pipelineWire Pipeline
)

// GobEncode exports the learned column statistics.
func (s *StandardScaler) GobEncode() ([]byte, error) { return GobState((*scalerWire)(s)) }

// GobDecode restores the learned column statistics.
func (s *StandardScaler) GobDecode(data []byte) error {
	return UngobState(data, (*scalerWire)(s), s.check)
}

// GobEncode serializes the scaler, the wrapped model and the fitted flag.
func (p *Pipeline) GobEncode() ([]byte, error) { return GobState((*pipelineWire)(p)) }

// GobDecode restores the pipeline.
func (p *Pipeline) GobDecode(data []byte) error { return UngobState(data, (*pipelineWire)(p), nil) }
