import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and keep no example
# database, so the suite stays reproducible and its cost fixed
settings.register_profile(
    "ensql",
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
)
settings.load_profile("ensql")

from ensql.catalog import ColumnDef, ForeignKeyDef, SchemaCatalog, TableDef

from helpers import build_toy_db

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def financial_catalog() -> SchemaCatalog:
    """Three-table banking schema exercising every renderer feature.

    loan's primary key names a column the table does not expose; renderers
    must pass it through without inventing a column, so validate() is not
    called here.
    """
    return SchemaCatalog(
        db_id="financial",
        tables=(
            TableDef(
                name="account",
                columns=(
                    ColumnDef(
                        name="account_id",
                        sql_type="INTEGER",
                        default="0",
                        description="account id",
                        value_examples=("1", "2", "3"),
                    ),
                    ColumnDef(
                        name="district_id",
                        sql_type="INTEGER",
                        nullable=False,
                        default="0",
                        description="location of branch",
                        value_examples=("18", "1", "5"),
                    ),
                ),
                primary_key=("account_id",),
            ),
            TableDef(
                name="district",
                columns=(
                    ColumnDef(
                        name="district_id",
                        sql_type="INTEGER",
                        default="0",
                        description="location of branch",
                        value_examples=("1", "2", "3"),
                    ),
                    ColumnDef(
                        name="A11",
                        sql_type="INTEGER",
                        nullable=False,
                        description="average salary",
                        value_examples=("12541", "8507", "8980"),
                    ),
                ),
                primary_key=("district_id",),
            ),
            TableDef(
                name="loan",
                columns=(
                    ColumnDef(
                        name="amount",
                        sql_type="INTEGER",
                        nullable=False,
                        value_examples=("80952", "30276", "318480"),
                    ),
                    ColumnDef(
                        name="status",
                        sql_type="TEXT",
                        nullable=False,
                        value_examples=("A", "B", "D"),
                        category_values=("C", "A", "D", "B"),
                    ),
                ),
                primary_key=("loan_id",),
            ),
        ),
        foreign_keys=(
            ForeignKeyDef("account", "district_id", "district", "district_id"),
        ),
    )


@pytest.fixture(scope="session")
def toy_catalog() -> SchemaCatalog:
    """The shop schema used by the filtering examples."""
    return SchemaCatalog(
        db_id="toy_shop",
        tables=(
            TableDef(
                name="users",
                columns=(
                    ColumnDef("user_id", "INTEGER"),
                    ColumnDef("name", "TEXT"),
                    ColumnDef("email", "TEXT"),
                    ColumnDef("created_at", "DATE"),
                ),
                primary_key=("user_id",),
            ),
            TableDef(
                name="products",
                columns=(
                    ColumnDef("product_id", "INTEGER"),
                    ColumnDef("name", "TEXT"),
                    ColumnDef("price", "DECIMAL"),
                    ColumnDef("stock", "INTEGER"),
                ),
                primary_key=("product_id",),
            ),
            TableDef(
                name="orders",
                columns=(
                    ColumnDef("order_id", "INTEGER"),
                    ColumnDef("user_id", "INTEGER"),
                    ColumnDef("product_id", "INTEGER"),
                    ColumnDef("quantity", "INTEGER"),
                    ColumnDef("order_date", "DATE"),
                ),
                primary_key=("order_id",),
            ),
        ),
        foreign_keys=(
            ForeignKeyDef("orders", "user_id", "users", "user_id"),
            ForeignKeyDef("orders", "product_id", "products", "product_id"),
        ),
    )


@pytest.fixture(scope="session")
def toy_db(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("db") / "toy_shop.sqlite"
    build_toy_db(path)
    return str(path)
