import pytest

from ivit import tensor as tensor_mod


@pytest.fixture()
def recorded_nodes(monkeypatch) -> list:
    """One entry per graph node `tensor._result` records during the test (list.append is atomic across threads)."""
    recorded = []
    inner = tensor_mod._result

    def counting(data, parents, backward):
        out = inner(data, parents, backward)
        if out._node is not None:
            recorded.append(1)
        return out

    monkeypatch.setattr(tensor_mod, "_result", counting)
    return recorded
