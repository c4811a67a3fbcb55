"""Shared test utilities: a deterministic scripted model and a toy benchmark.

The scripted backend computes every reply from the request content alone, so
recorded fixtures replay byte-identically and tests never need a network.
"""
from __future__ import annotations

import re
import sqlite3
from pathlib import Path

from ensql.gateway import ChatBackend, ChatRequest, ChatResponse, TokenUsage
from ensql.generation import load_generation_system_prompt
from ensql.linking import load_linking_system_prompt
from ensql.selection import ExecutionResult


def build_toy_db(path: str | Path) -> None:
    """A small shop database; every scripted answer is hand-checked against it."""
    conn = sqlite3.connect(path)
    try:
        conn.executescript(
            """
            CREATE TABLE users (
                user_id INTEGER PRIMARY KEY,
                name TEXT NOT NULL,
                email TEXT,
                created_at DATE
            );
            CREATE TABLE products (
                product_id INTEGER PRIMARY KEY,
                name TEXT NOT NULL,
                price DECIMAL(8,2),
                stock INTEGER DEFAULT 0
            );
            CREATE TABLE orders (
                order_id INTEGER PRIMARY KEY,
                user_id INTEGER NOT NULL,
                product_id INTEGER NOT NULL,
                quantity INTEGER,
                order_date DATE,
                FOREIGN KEY (user_id) REFERENCES users(user_id),
                FOREIGN KEY (product_id) REFERENCES products(product_id)
            );
            INSERT INTO users VALUES
                (1,'Alice','alice@example.com','2023-01-05'),
                (2,'Bob','bob@example.com','2023-02-10'),
                (3,'Cara','cara@example.com','2023-03-15'),
                (4,'Dan','dan@example.com','2023-04-01');
            INSERT INTO products VALUES
                (1,'Widget',9.99,100),
                (2,'Gadget',19.5,50),
                (3,'Gizmo',4.25,0);
            INSERT INTO orders VALUES
                (1,1,1,2,'2023-05-01'),
                (2,1,2,1,'2023-05-03'),
                (3,2,1,5,'2023-05-04'),
                (4,3,3,3,'2023-06-01'),
                (5,2,2,2,'2023-06-11');
            """
        )
        conn.commit()
    finally:
        conn.close()


class ScriptedBackend(ChatBackend):
    """Chat backend whose replies are a pure function of the request."""

    def __init__(self, script):
        self.script = script
        self.requests: list[ChatRequest] = []

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        reply = self.script(request)
        if isinstance(reply, ChatResponse):
            return reply
        prompt_chars = sum(len(m["content"]) for m in request.messages)
        return ChatResponse(
            text=reply,
            usage=TokenUsage(prompt_chars // 4, max(1, len(reply) // 4)),
        )


def recorded(result: ExecutionResult) -> tuple:
    """What a run record keeps of an execution result: every field but elapsed_ms."""
    return (result.status, result.signature, result.row_count, result.error_text,
            result.preview)


def sql_block(sql: str) -> str:
    return f"```sql\n{sql}\n```"


_QUESTION_RE = re.compile(r"Question: (.*)")
_JUDGE_A_RE = re.compile(r"Candidate A SQL:\n(.*?)\n\nCandidate A execution result:", re.S)
_JUDGE_B_RE = re.compile(r"Candidate B SQL:\n(.*?)\n\nCandidate B execution result:", re.S)


def parse_judge_prompt(content: str) -> tuple[str, str]:
    match_a = _JUDGE_A_RE.search(content)
    match_b = _JUDGE_B_RE.search(content)
    if not match_a or not match_b:
        raise AssertionError("judge prompt missing candidate sections")
    return match_a.group(1), match_b.group(1)


# The five generation slots of the default slate, identified by the schema
# representation in the prompt plus whether the linker-dropped users.email
# column survived filtering:
#   0: commented tuples, unfiltered        2: compact tagged, table filtering
#   1: commented tuples, column filtering  3: compact tagged, column filtering
#   4: ddl, column filtering
def _slot_of(content: str) -> int:
    schema = content[: content.rfind("Question:")]
    has_email = "email" in schema
    if "[DB_ID]" in schema:
        return 2 if has_email else 3
    if "CREATE messages:" in schema:
        return 4
    return 0 if has_email else 1


# Linker keeps every table and every column except users.email, so filtered
# and unfiltered prompts stay distinguishable.
TOY_LINKER_JSON = (
    '{"users": ["user_id", "name", "created_at"],'
    ' "products": ["product_id", "name", "price", "stock"],'
    ' "orders": ["order_id", "user_id", "product_id", "quantity", "order_date"]}'
)


def _q(question: str, sql5: tuple[str, str, str, str, str], gold: str, ex: int,
       calls: int, votes: int) -> dict:
    return {"question": question, "slots": sql5, "gold": gold,
            "ex": ex, "calls": calls, "votes": votes}


Q_COUNT_USERS = "SELECT COUNT(*) FROM users"
Q_ALICE_QTY = (
    "SELECT SUM(o.quantity) FROM orders o "
    "JOIN users u ON u.user_id = o.user_id WHERE u.name = 'Alice'"
)
Q_BOB_ORDERS = (
    "SELECT COUNT(*) FROM orders o "
    "JOIN users u ON o.user_id = u.user_id WHERE u.name = 'Bob'"
)
Q_TOP_PRODUCT = "SELECT name FROM products ORDER BY price DESC LIMIT 1"
Q_REVENUE = (
    "SELECT SUM(p.price * o.quantity) FROM orders o "
    "JOIN products p ON p.product_id = o.product_id"
)
Q_GIZMO_BUYER = (
    "SELECT u.name FROM users u "
    "JOIN orders o ON o.user_id = u.user_id "
    "JOIN products p ON p.product_id = o.product_id WHERE p.name = 'Gizmo'"
)

# Engineered vote shapes: expected per-question accuracy, LLM call count
# (3 linking + 5 generation + pairwise judging), and winning vote count.
TOY_BENCH = [
    _q("How many users are there?",
       (Q_COUNT_USERS,) * 5,
       Q_COUNT_USERS, ex=1, calls=8, votes=5),
    _q("List the names of all users.",
       ("SELECT name FROM users",) * 4 + ("SELECT name FROM users WHERE user_id < 4",),
       "SELECT name FROM users", ex=1, calls=8, votes=4),
    _q("What is the total quantity of items Alice ordered?",
       (Q_ALICE_QTY, Q_ALICE_QTY, Q_ALICE_QTY,
        "SELECT SUM(quantity) FROM orders WHERE user_id = 2",
        "SELECT SUM(quantity) FROM orders WHERE user_id = 2"),
       Q_ALICE_QTY, ex=1, calls=10, votes=3),
    _q("How many orders has Bob placed?",
       (Q_BOB_ORDERS, Q_BOB_ORDERS,
        "SELECT COUNT(*) FROM orders WHERE user_id = 3",
        "SELECT COUNT(*) FROM orders WHERE user_id = 3",
        "SELECT COUNT(*) FROM orders"),
       Q_BOB_ORDERS, ex=1, calls=14, votes=2),
    _q("What is the name of the most expensive product?",
       (Q_TOP_PRODUCT,
        "SELECT name FROM products WHERE price > 0.0 AND stock >= 0"
        " ORDER BY price ASC LIMIT 1",
        "SELECT product_id FROM products ORDER BY price DESC LIMIT 1",
        "SELECT name, price FROM products ORDER BY price DESC LIMIT 1",
        "SELECT MAX(price) FROM products"),
       Q_TOP_PRODUCT, ex=0, calls=28, votes=1),
    _q("How many products are out of stock?",
       ("SELECT COUNT(*) FROM products WHERE stock = 0",
        "SELECT COUNT(*) FROM products WHERE stock = 0",
        "SELECT COUNT(*) FROM productz WHERE stock = 0",
        "SELECT COUNT(*) FROM products WHERE stock = 0",
        "SELECT COUNT(*) FROM products WHERE stock = 0"),
       "SELECT COUNT(*) FROM products WHERE stock = 0", ex=1, calls=8, votes=4),
    _q("What is the total revenue across all orders?",
       (Q_REVENUE,) * 5,
       Q_REVENUE, ex=1, calls=8, votes=5),
    _q("What is the name of the newest user?",
       ("SELECT name FROM users ORDER BY user_id LIMIT 1",
        "SELECT name FROM users ORDER BY user_id LIMIT 1",
        "SELECT name FROM users ORDER BY user_id LIMIT 1",
        "SELECT name FROM users ORDER BY created_at DESC LIMIT 1",
        "SELECT name FROM users ORDER BY user_id LIMIT 1"),
       "SELECT name FROM users ORDER BY created_at DESC LIMIT 1",
       ex=0, calls=8, votes=4),
    _q("What is the average product price?",
       ("SELECT AVG(price) FROM products",) * 5,
       "SELECT AVG(price) FROM products", ex=1, calls=8, votes=5),
    _q("Which user ordered a Gizmo?",
       ("SELECT name FROM users WHERE user_id = 1",
        "SELECT name FROM users WHERE user_id = 1",
        "SELECT name FROM users WHERE user_id = 1",
        Q_GIZMO_BUYER, Q_GIZMO_BUYER),
       Q_GIZMO_BUYER, ex=1, calls=10, votes=2),
]

EXPECTED_EX = 0.8
EXPECTED_CALLS = [q["calls"] for q in TOY_BENCH]
EXPECTED_CALLS_MEDIAN = 8.0
EXPECTED_CALLS_AVG = 11.0
EXPECTED_ESCALATED = 4


class ToyScript:
    """Scripted replies for the toy benchmark.

    Linker calls return a fixed table/column map; generation calls return the
    slot's engineered SQL; judge calls prefer the longer candidate and break
    ties toward A.
    """

    def __init__(self):
        self.linking_system = load_linking_system_prompt()
        self.generation_system = load_generation_system_prompt()
        self.by_question = {q["question"]: q["slots"] for q in TOY_BENCH}

    def __call__(self, request: ChatRequest) -> str:
        first = request.messages[0]["content"]
        last = request.messages[-1]["content"]
        if first.startswith("You are comparing two candidate SQL queries"):
            sql_a, sql_b = parse_judge_prompt(first)
            return "A" if len(sql_a) >= len(sql_b) else "B"
        if first == self.linking_system:
            return TOY_LINKER_JSON
        if first == self.generation_system:
            match = _QUESTION_RE.search(last)
            assert match, "generation prompt lacks a question line"
            question = match.group(1)
            slots = self.by_question.get(question)
            assert slots is not None, f"unscripted question: {question!r}"
            return sql_block(slots[_slot_of(last)])
        raise AssertionError(f"unrecognized request for model {request.model}")


def write_toy_dataset(root: Path) -> Path:
    """Materialize the toy benchmark as a dataset directory; returns the root."""
    import json

    db_dir = root / "dev_databases" / "toy_shop"
    db_dir.mkdir(parents=True, exist_ok=True)
    build_toy_db(db_dir / "toy_shop.sqlite")
    questions = [
        {
            "question_id": i + 1,
            "db_id": "toy_shop",
            "question": q["question"],
            "SQL": q["gold"],
        }
        for i, q in enumerate(TOY_BENCH)
    ]
    (root / "dev.json").write_text(json.dumps(questions, indent=1), encoding="utf-8")
    return root
