def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-seed", type=int, action="append", metavar="N",
        help="training seed of acceptance 2, 5 and 9, given once per seed (default 1)")
