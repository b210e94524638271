// Fixture: every getenv() under src/ is a reviewed environment knob —
// it must carry an env-knob allow directive followed by the reason a
// user needs it, so a new toggle cannot fork what a run measures
// unnoticed.

#include <cstdlib>

bool
traceEnabled()
{
    return std::getenv("FIXTURE_TRACE") != nullptr; // lint-expect: env-knob
}

bool
fastPathEnabled()
{
    // A waiver with no reason is a finding of its own.
    // sieve-lint: allow(env-knob)
    const char *env = std::getenv("FIXTURE_FAST_PATH"); // lint-expect: env-knob
    return env == nullptr || env[0] != '0';
}

const char *
scratchDirectory()
{
    // sieve-lint: allow(env-knob) honours the platform's scratch-directory convention
    const char *dir = std::getenv("TMPDIR");
    return dir != nullptr ? dir : "/tmp";
}
