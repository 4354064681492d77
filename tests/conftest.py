import os

# One BLAS thread unless the environment names its own count, as the CLI
# does: it must be set before numpy loads, and pytest loads this file before
# any test module. Test times then do not depend on the host's vCPU count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-seed", type=int, action="append", metavar="N",
        help="training seed of acceptance 2, 5 and 9, given once per seed (default 1)")
