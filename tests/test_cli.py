import pytest

from ramsey.cli import EXIT_VIOLATION, main


@pytest.mark.parametrize("n", [33, 100000])
def test_witness_check_rejects_oversized_order(tmp_path, capsys, n):
    path = tmp_path / "big.witness"
    path.write_text(f"n={n}\nred=\n")
    code = main(["witness-check", "--file", str(path), "--red", "C4", "--blue", "K3"])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().out.startswith("INVALID")
