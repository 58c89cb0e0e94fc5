import doctest

import pytest

from qschur import cyclo, laurent, permutations, vectors


# Run per module rather than with --doctest-modules, which would also
# import qschur/__main__.py and run the command line.
@pytest.mark.parametrize("module", [laurent, cyclo, permutations, vectors],
                         ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
