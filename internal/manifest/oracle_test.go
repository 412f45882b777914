package manifest

import (
	"encoding/xml"
	"fmt"
)

// decodeXML is the reference decoder Decode's scanner is checked against:
// encoding/xml's Unmarshal into the wire form Encode writes.
func decodeXML(data []byte) (*Manifest, error) {
	var x xmlManifest
	if err := xml.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	m := &Manifest{
		Package:     x.Package,
		VersionCode: x.VersionCode,
		VersionName: x.VersionName,
	}
	if x.UsesSDK != nil {
		m.MinSDK, m.TargetSDK = x.UsesSDK.Min, x.UsesSDK.Target
	}
	add := func(kind ComponentKind, cs []Component) {
		for _, c := range cs {
			c.Kind = kind
			m.Components = append(m.Components, c)
		}
	}
	add(KindActivity, x.Application.Activities)
	add(KindService, x.Application.Services)
	add(KindReceiver, x.Application.Receivers)
	add(KindProvider, x.Application.Providers)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
