package eval

// RaceEnabled exposes raceEnabled to the external eval_test package.
const RaceEnabled = raceEnabled
