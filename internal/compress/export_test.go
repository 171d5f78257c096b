package compress

// FlateDictionary is the preset dictionary FlateDict frames are primed
// with, for the external tests.
var FlateDictionary = flateDict
