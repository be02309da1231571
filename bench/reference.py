"""A fixed amount of pure-Python work that measures how fast the host runs
Python right now. It uses nothing from ml1, so no change to ml1 can change
its time.

    python3 bench/reference.py

`run.py` runs it between the timed ml1 invocations and divides their wall
times by its times (see `run.py`). Its work is like ml1's: small objects,
dict lookups, string building, recursion and regular expressions. It prints
a checksum, so a broken run shows.
"""

import re
import sys

WORD = re.compile(r"[a-z]+\d*")


class Node:
    __slots__ = ("name", "kids")

    def __init__(self, name, kids):
        self.name = name
        self.kids = kids


def tree(depth, name):
    if depth == 0:
        return Node(name, [])
    return Node(name, [tree(depth - 1, f"{name}.{k}") for k in range(3)])


def walk(node, table):
    table[node.name] = len(node.kids)
    return 1 + sum(walk(kid, table) for kid in node.kids)


def main():
    total = 0
    for round_ in range(5):
        table = {}
        total += walk(tree(7, f"r{round_}"), table)
        text = " ".join(sorted(table)[:2000])
        total += sum(len(m) for m in WORD.findall(text))
        total += sum(table.get(f"r{round_}.{k}", 0) for k in range(3))
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
