// Package manifest models AndroidManifest.xml: the app's package identity,
// its components (activities, services, receivers, providers) and their
// intent filters. The pipeline uses it to find deep-link ("BROWSABLE")
// activities that host first-party content (§3.1.3 of the paper), and the
// device simulator uses it for intent resolution.
//
// The on-disk form inside an APK is plain XML (Android's binary-XML
// packing is an encoding detail the analyses never depend on), emitted
// with encoding/xml and read back by Decode's own scanner.
package manifest

import (
	"encoding/xml"
	"fmt"

	"repro/internal/android"
)

// ComponentKind distinguishes the four Android component types.
type ComponentKind string

// Component kinds.
const (
	KindActivity ComponentKind = "activity"
	KindService  ComponentKind = "service"
	KindReceiver ComponentKind = "receiver"
	KindProvider ComponentKind = "provider"
)

// DataSpec is the <data> element of an intent filter: the scheme/host the
// filter accepts.
type DataSpec struct {
	Scheme string `xml:"scheme,attr,omitempty"`
	Host   string `xml:"host,attr,omitempty"`
}

// IntentFilter is an <intent-filter> block.
type IntentFilter struct {
	Actions    []string   `xml:"action>name"`
	Categories []string   `xml:"category>name"`
	Data       []DataSpec `xml:"data"`
}

// HasAction reports whether the filter declares the action.
func (f *IntentFilter) HasAction(action string) bool {
	for _, a := range f.Actions {
		if a == action {
			return true
		}
	}
	return false
}

// HasCategory reports whether the filter declares the category.
func (f *IntentFilter) HasCategory(cat string) bool {
	for _, c := range f.Categories {
		if c == cat {
			return true
		}
	}
	return false
}

// AcceptsWebScheme reports whether any <data> element accepts http or https.
func (f *IntentFilter) AcceptsWebScheme() bool {
	for _, d := range f.Data {
		if d.Scheme == "http" || d.Scheme == "https" {
			return true
		}
	}
	return false
}

// Component is one app component declaration.
type Component struct {
	Kind     ComponentKind  `xml:"-"`
	Name     string         `xml:"name,attr"` // dotted class name
	Exported bool           `xml:"exported,attr"`
	Filters  []IntentFilter `xml:"intent-filter"`
}

// IsDeepLinkHandler reports whether the component is an exported activity
// with a BROWSABLE+VIEW filter accepting http(s) — i.e. a deep link to
// (first-party) app content, which the pipeline excludes from third-party
// WebView attribution (§3.1.3).
func (c *Component) IsDeepLinkHandler() bool {
	if c.Kind != KindActivity || !c.Exported {
		return false
	}
	for i := range c.Filters {
		f := &c.Filters[i]
		if f.HasAction(android.ActionView) &&
			f.HasCategory(android.CategoryBrowsable) &&
			f.AcceptsWebScheme() {
			return true
		}
	}
	return false
}

// Manifest is the parsed AndroidManifest.
type Manifest struct {
	Package     string
	VersionCode int
	VersionName string
	MinSDK      int
	TargetSDK   int
	Components  []Component
}

// Activities returns the activity components.
func (m *Manifest) Activities() []Component {
	return m.byKind(KindActivity)
}

// ComponentByName returns the component declared with the given class name,
// or nil.
func (m *Manifest) ComponentByName(name string) *Component {
	for i := range m.Components {
		if m.Components[i].Name == name {
			return &m.Components[i]
		}
	}
	return nil
}

// DeepLinkActivities returns the names of activities that handle web deep
// links (see Component.IsDeepLinkHandler).
func (m *Manifest) DeepLinkActivities() []string {
	var out []string
	for i := range m.Components {
		if m.Components[i].IsDeepLinkHandler() {
			out = append(out, m.Components[i].Name)
		}
	}
	return out
}

// LauncherActivity returns the name of the MAIN/LAUNCHER activity, or "".
func (m *Manifest) LauncherActivity() string {
	for i := range m.Components {
		c := &m.Components[i]
		if c.Kind != KindActivity {
			continue
		}
		for j := range c.Filters {
			f := &c.Filters[j]
			if f.HasAction(android.ActionMain) && f.HasCategory(android.CategoryLauncher) {
				return c.Name
			}
		}
	}
	return ""
}

func (m *Manifest) byKind(k ComponentKind) []Component {
	var out []Component
	for _, c := range m.Components {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks that the manifest names a package and that every
// component has a class name.
func (m *Manifest) Validate() error {
	if m.Package == "" {
		return fmt.Errorf("manifest: empty package")
	}
	for i, c := range m.Components {
		if c.Name == "" {
			return fmt.Errorf("manifest: component %d (%s) has empty name", i, c.Kind)
		}
	}
	return nil
}

// xmlManifest is the wire representation Encode writes. Components
// serialise under their kind-specific element names inside <application>,
// as on Android.
type xmlManifest struct {
	XMLName     xml.Name       `xml:"manifest"`
	Package     string         `xml:"package,attr"`
	VersionCode int            `xml:"versionCode,attr"`
	VersionName string         `xml:"versionName,attr,omitempty"`
	UsesSDK     *xmlUsesSDK    `xml:"uses-sdk"`
	Application xmlApplication `xml:"application"`
}

type xmlUsesSDK struct {
	Min    int `xml:"minSdkVersion,attr,omitempty"`
	Target int `xml:"targetSdkVersion,attr,omitempty"`
}

type xmlApplication struct {
	Activities []Component `xml:"activity"`
	Services   []Component `xml:"service"`
	Receivers  []Component `xml:"receiver"`
	Providers  []Component `xml:"provider"`
}

// Encode serialises the manifest as XML.
func Encode(m *Manifest) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	x := xmlManifest{
		Package:     m.Package,
		VersionCode: m.VersionCode,
		VersionName: m.VersionName,
	}
	if m.MinSDK != 0 || m.TargetSDK != 0 {
		x.UsesSDK = &xmlUsesSDK{Min: m.MinSDK, Target: m.TargetSDK}
	}
	for _, c := range m.Components {
		switch c.Kind {
		case KindActivity:
			x.Application.Activities = append(x.Application.Activities, c)
		case KindService:
			x.Application.Services = append(x.Application.Services, c)
		case KindReceiver:
			x.Application.Receivers = append(x.Application.Receivers, c)
		case KindProvider:
			x.Application.Providers = append(x.Application.Providers, c)
		default:
			return nil, fmt.Errorf("manifest: unknown component kind %q", c.Kind)
		}
	}
	out, err := xml.MarshalIndent(&x, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}
