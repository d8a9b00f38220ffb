from hypothesis import settings

# every property test draws the same examples on every run and keeps no
# example database; the settings of a test inherit this profile
settings.register_profile("invreg", derandomize=True, database=None, deadline=None)
settings.load_profile("invreg")

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
