from filteralg.linalg import add_terms


def test_add_terms_drops_cancelled_keys_in_place():
    out = {"a": 1, "b": 2}
    result = add_terms(out, [("a", -1), ("c", 3), ("b", 1), ("c", -3)])
    assert result is out
    assert out == {"b": 3}
