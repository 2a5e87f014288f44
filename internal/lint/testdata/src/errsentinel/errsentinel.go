// Package errsfix is the fixture corpus for the errsentinel analyzer:
// identity comparisons and switch-cases on the module's sentinel names
// are findings; errors.Is and comparisons against non-sentinel errors
// are not.
package errsfix

import "errors"

var (
	ErrClosed      = errors.New("closed")
	ErrCorrupt     = errors.New("corrupt")
	ErrChecksum    = errors.New("checksum mismatch")
	ErrQuarantined = errors.New("quarantined")
	errLocalOnly   = errors.New("not a sentinel")

	// Checkpoint resume and serve admission sentinels.
	ErrNoCheckpoint = errors.New("no valid checkpoint")
	ErrFingerprint  = errors.New("options fingerprint mismatch")
	ErrOverloaded   = errors.New("daemon overloaded")
)

func bad(err error) bool {
	return err == ErrClosed // want "sentinel ErrClosed compared with =="
}

func badNeq(err error) bool {
	return err != ErrCorrupt // want "sentinel ErrCorrupt compared with !="
}

func badSwitch(err error) string {
	switch err {
	case ErrClosed: // want "switch-case compares sentinel ErrClosed"
		return "closed"
	default:
		return ""
	}
}

func badChecksum(err error) bool {
	return err == ErrChecksum // want "sentinel ErrChecksum compared with =="
}

func badQuarantined(err error) bool {
	return ErrQuarantined != err // want "sentinel ErrQuarantined compared with !="
}

func good(err error) bool {
	// errors.Is is the contract; a non-sentinel local compares freely.
	return errors.Is(err, ErrClosed) || err == errLocalOnly
}

func goodIntegrity(err error) bool {
	// The integrity sentinels arrive doubly wrapped (a quarantined read
	// wraps ErrChecksum and ErrQuarantined at once): errors.Is matches
	// either through the wrap chain.
	return errors.Is(err, ErrChecksum) && errors.Is(err, ErrQuarantined)
}

func badFingerprint(err error) bool {
	return err == ErrFingerprint // want "sentinel ErrFingerprint compared with =="
}

func badNoCheckpoint(err error) string {
	switch err {
	case ErrNoCheckpoint: // want "switch-case compares sentinel ErrNoCheckpoint"
		return "missing"
	default:
		return ""
	}
}

func badOverloaded(err error) bool {
	return ErrOverloaded == err // want "sentinel ErrOverloaded compared with =="
}

func goodCheckpoint(err error) bool {
	// The checkpoint loader wraps both sentinels with the directory or
	// file path; only errors.Is survives the wrap.
	return errors.Is(err, ErrFingerprint) || errors.Is(err, ErrNoCheckpoint)
}

func goodOverloaded(err error) bool {
	// Admission wraps ErrOverloaded with the queue depth.
	return errors.Is(err, ErrOverloaded)
}
