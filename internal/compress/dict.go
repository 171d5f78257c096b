package compress

// flateDict primes every FlateDict frame: the markup the platform's own
// encoders write into a mailbox answer — push's device-form mailbox
// document, wire's result-document and value elements of every type,
// the "result:" event and "ag-" agent-id prefixes and status="done" —
// so the first copy of each in an answer is a back-reference, not
// literals. It holds nothing an application writes: no map keys or
// values, no code ids. DEFLATE codes a near match in fewer bits than a
// far one, so the most frequent strings come last.
//
// The dictionary is frozen: a device decodes codec 3 with the copy it
// was built with, so changing one byte of it needs a new codec id.
// TestFlateDictionaryFrozen pins its SHA-256.
var flateDict = []byte(
	// Rare: value types no platform result needs, the error element,
	// and the kind of a status note.
	`<value type="nil"/><value type="bool">false</value><value type="bool">true</value><value type="float">` +
		`<error></error><value type="map"/><value type="list"/>` +
		`" kind="status" agent="ag-" kind="manage" agent="ag-` +
		// Once per answer: the mailbox document around its entries.
		`<?xml version="1.0" encoding="UTF-8"?><mailbox device="` + `" next="` + `" evicted="` + `"/>` +
		`"><entry seq="` + `" kind="result" agent="ag-` + `" event="result:ag-` + `"><![CDATA[` +
		// Once per result: the result document's root and its results.
		`<?xml version="1.0" encoding="UTF-8"?><result-document agent="ag-` + `" code-id="` + `" owner="` +
		`" status="done" hops="` + `" steps="` + `"><result key="` +
		// Per value: lists of maps of scalars, most frequent last.
		`"><value type="list"><value type="map"><entry key="` + `"><value type="int">` +
		`</value></entry><entry key="` + `"><value type="str">` +
		`</value></result><result key="` + `</value></result></result-document>]]></entry></mailbox>` +
		`</value></entry></value><value type="map"><entry key="`)
