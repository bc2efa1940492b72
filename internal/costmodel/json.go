package costmodel

import (
	"encoding/json"
	"fmt"
	"reflect"
)

// JSON calibration files: researchers recalibrating the reproduction
// against a different testbed can express a cost model as a JSON document
// of nanosecond values and load it with FromJSON (the catalyzer-load tool
// accepts one via -costmodel). The document is Model itself, keyed by its
// json tags in field order, so a dumped default can be edited and
// reloaded.

// ToJSON serializes a model as an editable calibration document.
func ToJSON(m *Model) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// FromJSON loads a calibration document. A key the document omits costs
// zero; ncpu must be positive and no cost may be negative.
func FromJSON(data []byte) (*Model, error) {
	m := new(Model)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("costmodel: parse: %w", err)
	}
	if m.NCPU <= 0 {
		return nil, fmt.Errorf("costmodel: ncpu must be positive")
	}
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() < 0 {
			return nil, fmt.Errorf("costmodel: %s must not be negative", v.Type().Field(i).Tag.Get("json"))
		}
	}
	return m, nil
}
