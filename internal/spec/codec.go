package spec

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"anondyn/internal/chaos"
)

// The key table of the spec format is the decoded structs themselves:
// every field that is a spec key carries a `spec:"key[,opt…]"` tag,
// and one reflective codec walks the tags in declaration order to
// decode the generic tree (map[string]any / []any / scalars) produced
// by either syntax, and to encode a Sweep back to YAML. Declaration
// order is therefore the canonical key order, and a key is spelled
// once, in its tag. Tag options:
//
//   - always: encode the key even when its value is zero;
//   - required: reject a mapping without the key (and always encode it);
//   - count: a string that also accepts an integer (count, quorum),
//     encoded bare when it is one;
//   - default=N: the integer a missing key decodes to.
//
// An embedded struct without a tag (Overrides) is read inline. Two
// adjacent fields may share a key ("nodes"): the first takes a
// selector string, the second an explicit list. Decode errors cite the
// offending key path ("byzantine[1].strategy: …"), and unknown keys
// are rejected.

// field is one row of the key table.
type field struct {
	index    int
	key      string
	inline   bool
	always   bool
	required bool
	count    bool
	def      int64
	hasDef   bool
}

var fieldCache sync.Map // reflect.Type → []field

// fieldsOf returns the tagged fields of a struct type in declaration
// order.
func fieldsOf(t reflect.Type) []field {
	if fs, ok := fieldCache.Load(t); ok {
		return fs.([]field)
	}
	var fs []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, tagged := sf.Tag.Lookup("spec")
		if !tagged {
			if sf.Anonymous && sf.Type.Kind() == reflect.Struct {
				fs = append(fs, field{index: i, inline: true})
			}
			continue
		}
		opts := strings.Split(tag, ",")
		f := field{index: i, key: opts[0]}
		for _, opt := range opts[1:] {
			switch {
			case opt == "always":
				f.always = true
			case opt == "required":
				f.required = true
			case opt == "count":
				f.count = true
			case strings.HasPrefix(opt, "default="):
				v, err := strconv.ParseInt(strings.TrimPrefix(opt, "default="), 10, 64)
				if err != nil {
					panic("spec: bad default in tag " + tag)
				}
				f.def, f.hasDef = v, true
			default:
				panic("spec: unknown tag option " + opt)
			}
		}
		fs = append(fs, f)
	}
	fieldCache.Store(t, fs)
	return fs
}

// scalarCodec reads and writes a struct type as a single value instead
// of a mapping.
type scalarCodec struct {
	decode func(raw any, key string) (any, error)
	encode func(v any) string
	// block writes a list of these as "- " items instead of a flow list.
	block bool
}

var scalarCodecs = map[reflect.Type]scalarCodec{
	reflect.TypeOf(Bound{}):           {decode: decodeBound, encode: encodeBound},
	reflect.TypeOf(chaos.Assertion{}): {decode: decodeAssertion, encode: encodeAssertion, block: true},
}

// decodeBound reads an fs entry: an integer or a symbolic bound.
func decodeBound(raw any, key string) (any, error) {
	switch v := raw.(type) {
	case int64:
		return Bound{Lit: int(v)}, nil
	case string:
		switch v {
		case "(n-1)/2", "n/2", "(n-1)/5":
			return Bound{Expr: v}, nil
		}
		return nil, fmt.Errorf("%s: unknown symbolic bound %q (want an integer, %s)", key, v, boundExprs)
	}
	return nil, fmt.Errorf("%s: expected an integer or %s, got %s", key, boundExprs, typeName(raw))
}

func encodeBound(v any) string {
	b := v.(Bound)
	if b.Expr != "" {
		return yamlString(b.Expr)
	}
	return strconv.Itoa(b.Lit)
}

// decodeAssertion reads one assertion: a bare name ("converged",
// "agreement") or a single-key bound mapping ("max_rounds: 400",
// "survivors: \">= n/2\"").
func decodeAssertion(raw any, key string) (any, error) {
	switch v := raw.(type) {
	case string:
		return chaos.Assertion{Kind: v}, nil
	case map[string]any:
		o := object{m: v, path: key + "."}
		var a chaos.Assertion
		if bound, ok := o.take("max_rounds"); ok {
			b, isInt := bound.(int64)
			if !isInt {
				return nil, fmt.Errorf("%s.max_rounds: expected an integer, got %s", key, typeName(bound))
			}
			a = chaos.Assertion{Kind: "max_rounds", Bound: int(b)}
		} else if expr, ok := o.take("survivors"); ok {
			s, isStr := expr.(string)
			if !isStr {
				return nil, fmt.Errorf("%s.survivors: expected an expression string, got %s", key, typeName(expr))
			}
			a = chaos.Assertion{Kind: "survivors", Expr: s}
		} else {
			return nil, fmt.Errorf("%s: expected max_rounds or survivors", key)
		}
		return a, o.finish()
	}
	return nil, fmt.Errorf("%s: expected an assertion name or a bound mapping, got %s", key, typeName(raw))
}

func encodeAssertion(v any) string {
	switch a := v.(chaos.Assertion); a.Kind {
	case "max_rounds":
		return a.Kind + ": " + strconv.Itoa(a.Bound)
	case "survivors":
		return a.Kind + ": " + strconv.Quote(a.Expr)
	default:
		return a.Kind
	}
}

// object is one mapping being decoded; take consumes its keys.
type object struct {
	m    map[string]any
	path string // "" at the top level, "crashes." etc. below
}

func asObject(v any, path string) (object, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return object{}, fmt.Errorf("%s: expected a mapping, got %s", pathLabel(path), typeName(v))
	}
	return object{m: m, path: path}, nil
}

func (o object) take(key string) (any, bool) {
	v, ok := o.m[key]
	if ok {
		delete(o.m, key)
	}
	return v, ok
}

// finish rejects any keys the decoder did not consume.
func (o object) finish() error {
	for key := range o.m {
		return fmt.Errorf("%s%s: unknown key", o.path, key)
	}
	return nil
}

func pathLabel(path string) string {
	if path == "" {
		return "document"
	}
	return path[:len(path)-1] // drop the trailing "."
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "a bool"
	case int64:
		return "an integer"
	case float64:
		return "a float"
	case string:
		return "a string"
	case []any:
		return "a sequence"
	case map[string]any:
		return "a mapping"
	}
	return fmt.Sprintf("%T", v)
}

// decodeStruct fills the tagged fields of dst from one mapping.
func decodeStruct(o object, dst reflect.Value) error {
	fields := fieldsOf(dst.Type())
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if f.inline {
			if err := decodeStruct(o, dst.Field(f.index)); err != nil {
				return err
			}
			continue
		}
		raw, ok := o.take(f.key)
		if i+1 < len(fields) && fields[i+1].key == f.key {
			// A shared key: a string fills the first field, a list the
			// second.
			i++
			if _, isList := raw.([]any); isList {
				f = fields[i]
			} else if _, isStr := raw.(string); ok && !isStr {
				return fmt.Errorf("%s%s: expected a selector name or a node list, got %s", o.path, f.key, typeName(raw))
			}
		}
		switch {
		case ok:
			if err := decodeValue(raw, dst.Field(f.index), o.path+f.key, f.count); err != nil {
				return err
			}
		case f.required:
			return fmt.Errorf("%s%s: required", o.path, f.key)
		case f.hasDef:
			dst.Field(f.index).SetInt(f.def)
		}
	}
	return nil
}

// decodeValue fills dst from one tree node; key is its path in errors.
func decodeValue(raw any, dst reflect.Value, key string, count bool) error {
	if c, ok := scalarCodecs[dst.Type()]; ok {
		v, err := c.decode(raw, key)
		if err != nil {
			return err
		}
		dst.Set(reflect.ValueOf(v))
		return nil
	}
	switch dst.Kind() {
	case reflect.String:
		s, isStr := raw.(string)
		if i, isInt := raw.(int64); isInt && count {
			s, isStr = strconv.FormatInt(i, 10), true
		}
		if !isStr {
			want := "a string"
			if count {
				want = "an integer or a string"
			}
			return fmt.Errorf("%s: expected %s, got %s", key, want, typeName(raw))
		}
		dst.SetString(s)
	case reflect.Bool:
		b, ok := raw.(bool)
		if !ok {
			return fmt.Errorf("%s: expected true/false, got %s", key, typeName(raw))
		}
		dst.SetBool(b)
	case reflect.Int, reflect.Int64:
		i, ok := raw.(int64)
		if !ok {
			return fmt.Errorf("%s: expected an integer, got %s", key, typeName(raw))
		}
		dst.SetInt(i)
	case reflect.Float64:
		switch v := raw.(type) {
		case int64:
			dst.SetFloat(float64(v))
		case float64:
			dst.SetFloat(v)
		default:
			return fmt.Errorf("%s: expected a number, got %s", key, typeName(raw))
		}
	case reflect.Pointer:
		p := reflect.New(dst.Type().Elem())
		if err := decodeValue(raw, p.Elem(), key, count); err != nil {
			return err
		}
		dst.Set(p)
	case reflect.Struct:
		path := ""
		if key != "" {
			path = key + "."
		}
		o, err := asObject(raw, path)
		if err != nil {
			return err
		}
		if err := decodeStruct(o, dst); err != nil {
			return err
		}
		return o.finish()
	case reflect.Slice:
		seq, ok := raw.([]any)
		if !ok {
			return fmt.Errorf("%s: expected a sequence, got %s", key, typeName(raw))
		}
		out := reflect.MakeSlice(dst.Type(), len(seq), len(seq))
		for i, item := range seq {
			if err := decodeValue(item, out.Index(i), fmt.Sprintf("%s[%d]", key, i), count); err != nil {
				return err
			}
		}
		dst.Set(out)
	default:
		panic("spec: no codec for " + dst.Type().String())
	}
	return nil
}

// Encode renders the sweep as YAML in canonical key order — the write
// half of the round-trip, so the sweep a CLI compiles from its flags
// can be saved as a reviewable spec file (dynabench and dynasim
// -save-spec). The output parses back to an equal Sweep (asserted by
// the round-trip tests and FuzzParseEncode).
func (s *Sweep) Encode() []byte {
	var b strings.Builder
	encodeStruct(&b, reflect.ValueOf(s).Elem(), "", "")
	return []byte(b.String())
}

// encodeStruct writes the set fields of v, one "key: value" line each
// (nested blocks below). The first line starts with lead — indent, or
// a list item's "- " marker — and later lines with indent. It returns
// the lead for the next line.
func encodeStruct(b *strings.Builder, v reflect.Value, lead, indent string) string {
	for _, f := range fieldsOf(v.Type()) {
		fv := v.Field(f.index)
		if f.inline {
			lead = encodeStruct(b, fv, lead, indent)
			continue
		}
		if !f.always && !f.required && (fv.IsZero() || fv.Kind() == reflect.Slice && fv.Len() == 0) {
			continue
		}
		b.WriteString(lead + f.key + ":")
		lead = indent
		if fv.Kind() == reflect.Pointer {
			fv = fv.Elem()
		}
		switch _, custom := scalarCodecs[fv.Type()]; {
		case fv.Kind() == reflect.Struct && !custom:
			b.WriteString("\n")
			encodeStruct(b, fv, indent+"  ", indent+"  ")
		case fv.Kind() == reflect.Slice:
			encodeList(b, fv, indent, f.count)
		default:
			b.WriteString(" " + scalar(fv, f.count) + "\n")
		}
	}
	return lead
}

// encodeList writes a list: scalars as a flow list on the key's line,
// mappings and block codecs as "- " items below it.
func encodeList(b *strings.Builder, v reflect.Value, indent string, count bool) {
	c, custom := scalarCodecs[v.Type().Elem()]
	if v.Type().Elem().Kind() != reflect.Struct || custom && !c.block {
		items := make([]string, v.Len())
		for i := range items {
			items[i] = scalar(v.Index(i), count)
		}
		b.WriteString(" [" + strings.Join(items, ", ") + "]\n")
		return
	}
	b.WriteString("\n")
	for i := 0; i < v.Len(); i++ {
		item, lead := v.Index(i), indent+"  - "
		if custom {
			b.WriteString(lead + scalar(item, count) + "\n")
			continue
		}
		if encodeStruct(b, item, lead, indent+"    ") == lead {
			// An item with no set key still needs a line to exist.
			f := fieldsOf(item.Type())[0]
			b.WriteString(lead + f.key + ": " + scalar(item.Field(f.index), f.count) + "\n")
		}
	}
}

// scalar spells one scalar value.
func scalar(v reflect.Value, count bool) string {
	if c, ok := scalarCodecs[v.Type()]; ok {
		return c.encode(v.Interface())
	}
	switch v.Kind() {
	case reflect.String:
		if count {
			return countValue(v.String())
		}
		return yamlString(v.String())
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Float64:
		return formatFloat(v.Float())
	}
	panic("spec: no scalar codec for " + v.Type().String())
}

// countValue emits an int-or-symbol value: integers bare, symbols
// quoted.
func countValue(s string) string {
	if _, err := strconv.Atoi(s); err == nil {
		return s
	}
	return yamlString(s)
}

// yamlString quotes a string whenever the bare spelling could re-parse
// as something else.
func yamlString(s string) string {
	bare := s != "" &&
		!strings.ContainsAny(s, "\"'#:[]{},\n") &&
		s != "true" && s != "false" && s != "null" && s != "~" &&
		!strings.HasPrefix(s, "- ") && s != "-" &&
		strings.TrimSpace(s) == s
	if bare {
		if _, err := strconv.ParseFloat(s, 64); err == nil {
			bare = false
		}
	}
	if bare {
		return s
	}
	return strconv.Quote(s)
}

// formatFloat keeps the shortest round-trippable spelling.
func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0" // keep floats parsing as floats
	}
	return s
}
