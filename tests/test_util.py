import numpy as np

from newsnet.util import write_csv


def test_write_csv_unwraps_numpy_scalars(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"],
              [[np.float64(0.1), np.float32(0.1), np.int64(7), np.bool_(True), False, 0.1]])
    assert path.read_text(encoding="utf-8").splitlines() == [
        "a,b,c,d,e,f", f"0.1,{float(np.float32(0.1))!r},7,True,False,0.1"]
