from hypothesis import settings

# property tests draw the same examples on every run and are not timed per
# example: the suite's result must not depend on the run or the machine load
settings.register_profile("mshe", derandomize=True, deadline=None)
settings.load_profile("mshe")
