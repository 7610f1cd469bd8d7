//! Fixture: escapes that do not parse or name unknown rules — each is
//! itself a diagnostic, so a typo cannot silently disable checking.

// lint: allow(no-unwarp)
pub fn misspelled() {}

// lint: deny(no-wallclock)
pub fn wrong_verb() {}
