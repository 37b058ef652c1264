"""Recursive-descent parser for the HiveQL dialect.

Supported statements (the set the paper's workloads need, plus basics):

* ``SELECT`` with joins, derived tables, GROUP BY/HAVING, ORDER BY, LIMIT
* ``INSERT INTO / INSERT OVERWRITE TABLE ... SELECT ...`` and ``VALUES``
* ``UPDATE t SET c = e, ... WHERE ...``  (the DualTable extension)
* ``DELETE FROM t WHERE ...``            (the DualTable extension)
* ``CREATE TABLE ... (cols) STORED AS {ORC|HBASE|DUALTABLE|ACID}``
* ``DROP TABLE [IF EXISTS]``, ``COMPACT TABLE``, ``SHOW TABLES``,
  ``DESCRIBE t``
"""

from repro.common.errors import ParseError
from repro.hive import ast_nodes as ast
from repro.hive.lexer import tokenize

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


class Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers.
    # ------------------------------------------------------------------
    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind, value=None):
        token = self.peek()
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def check_kw(self, *words):
        token = self.peek()
        return token.kind == "kw" and token.value in words

    def accept(self, kind, value=None):
        if self.check(kind, value):
            return self.advance()
        return None

    def accept_kw(self, *words):
        if self.check_kw(*words):
            return self.advance()
        return None

    def expect(self, kind, value=None):
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            raise ParseError(
                "expected %s %r but found %s %r"
                % (kind, value, actual.kind, actual.value), actual.pos)
        return token

    def expect_kw(self, *words):
        token = self.accept_kw(*words)
        if token is None:
            actual = self.peek()
            raise ParseError(
                "expected keyword %s but found %r" % ("/".join(words),
                                                      actual.value),
                actual.pos)
        return token

    def expect_ident(self):
        token = self.peek()
        # Allow non-reserved-ish keywords as identifiers where unambiguous.
        if token.kind == "ident":
            return self.advance().value
        raise ParseError("expected identifier, found %r" % (token.value,),
                         token.pos)

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------
    def parse_statement(self):
        stmt = self._statement()
        self.accept("punct", ";")
        self.expect("eof")
        return stmt

    def parse_script(self):
        statements = []
        while not self.check("eof"):
            statements.append(self._statement())
            while self.accept("punct", ";"):
                pass
        return statements

    def _statement(self):
        if self.accept_kw("explain"):
            # ANALYZE is not a reserved word; accept it as a bare ident.
            analyze = False
            token = self.peek()
            if token.kind == "ident" and token.value.lower() == "analyze":
                self.advance()
                analyze = True
            return ast.ExplainStmt(statement=self._statement(),
                                   analyze=analyze)
        if self.check_kw("select"):
            return self.parse_query()
        if self.check_kw("insert"):
            return self._insert()
        if self.check_kw("update"):
            return self._update()
        if self.check_kw("delete"):
            return self._delete()
        if self.check_kw("create"):
            return self._create_table()
        if self.check_kw("drop"):
            return self._drop_table()
        if self.check_kw("alter"):
            return self._alter()
        if self.check_kw("merge"):
            return self._merge()
        if self.check_kw("compact"):
            return self._compact()
        if self.check_kw("show"):
            self.expect_kw("show")
            if self.accept_kw("partitions"):
                return ast.ShowPartitionsStmt(table=self.expect_ident())
            token = self.peek()
            if token.kind == "ident" and token.value.lower() == "metrics":
                self.advance()
                like = None
                if self.accept_kw("like"):
                    like = self.expect("string").value
                return ast.ShowMetricsStmt(like=like)
            if token.kind == "ident" and token.value.lower() == "advisor":
                self.advance()
                return ast.ShowAdvisorStmt()
            if token.kind == "ident" and token.value.lower() == "compactions":
                self.advance()
                return ast.ShowCompactionsStmt()
            if token.kind == "ident" and token.value.lower() == "shards":
                self.advance()
                return ast.ShowShardsStmt(table=self.expect_ident())
            if token.kind == "ident" and token.value.lower() == "sessions":
                self.advance()
                return ast.ShowSessionsStmt()
            if token.kind == "ident" and token.value.lower() == "server":
                self.advance()
                stats = self.peek()
                if stats.kind == "ident" and stats.value.lower() == "stats":
                    self.advance()
                    return ast.ShowServerStatsStmt()
                raise ParseError("expected STATS after SHOW SERVER",
                                 stats.pos)
            self.expect_kw("tables")
            return ast.ShowTablesStmt()
        if self.check_kw("describe"):
            self.expect_kw("describe")
            return ast.DescribeStmt(table=self.expect_ident())
        if self.check_kw("set"):
            return self._set_option()
        token = self.peek()
        # ANALYZE is not a reserved word; accept it as a bare ident.
        if token.kind == "ident" and token.value.lower() == "analyze":
            self.advance()
            return self._analyze_workload()
        raise ParseError("cannot parse statement starting with %r"
                         % (token.value,), token.pos)

    def _set_option(self):
        """``SET dotted.option.name = value`` — session knobs."""
        self.expect_kw("set")
        parts = [self._option_name_part()]
        while self.accept("punct", "."):
            parts.append(self._option_name_part())
        self.expect("op", "=")
        token = self.advance()
        if token.kind not in ("ident", "kw", "string", "number"):
            raise ParseError("expected a value after SET %s ="
                             % ".".join(parts), token.pos)
        return ast.SetOptionStmt(name=".".join(parts).lower(),
                                 value=str(token.value))

    def _option_name_part(self):
        """One dotted-name segment of a SET option.

        Keywords are allowed — option names live in their own namespace
        (Hive's ``hive.merge.mapfiles`` must parse even though MERGE is
        reserved, so the session can reject it as an unknown option).
        """
        token = self.peek()
        if token.kind in ("ident", "kw"):
            return self.advance().value
        raise ParseError("expected option name, found %r"
                         % (token.value,), token.pos)

    def _analyze_workload(self):
        token = self.advance()
        if token.kind != "ident" or token.value.lower() != "workload":
            raise ParseError("expected WORKLOAD after ANALYZE", token.pos)
        apply = False
        token = self.peek()
        if token.kind == "ident" and token.value.lower() == "apply":
            self.advance()
            apply = True
        return ast.AnalyzeWorkloadStmt(apply=apply)

    # ------------------------------------------------------------------
    # SELECT.
    # ------------------------------------------------------------------
    def parse_query(self):
        """One SELECT, or a UNION ALL chain of SELECTs."""
        first = self.parse_select()
        if not self.check_kw("union"):
            return first
        selects = [first]
        while self.accept_kw("union"):
            self.expect_kw("all")
            selects.append(self.parse_select())
        return ast.UnionAllStmt(selects=selects)

    def parse_select(self):
        self.expect_kw("select")
        distinct = bool(self.accept_kw("distinct"))
        if not distinct:
            self.accept_kw("all")
        items = [self._select_item()]
        while self.accept("punct", ","):
            items.append(self._select_item())
        stmt = ast.SelectStmt(items=items, distinct=distinct)
        if self.accept_kw("from"):
            stmt.source = self._table_ref()
            while self.check_kw("join", "inner", "left", "right", "full"):
                stmt.joins.append(self._join_clause())
        if self.accept_kw("where"):
            stmt.where = self.parse_expr()
        if self.accept_kw("group"):
            self.expect_kw("by")
            stmt.group_by.append(self.parse_expr())
            while self.accept("punct", ","):
                stmt.group_by.append(self.parse_expr())
        if self.accept_kw("having"):
            stmt.having = self.parse_expr()
        if self.accept_kw("order"):
            self.expect_kw("by")
            stmt.order_by.append(self._order_item())
            while self.accept("punct", ","):
                stmt.order_by.append(self._order_item())
        if self.accept_kw("limit"):
            stmt.limit = int(self.expect("number").value)
        return stmt

    def _select_item(self):
        if self.check("op", "*"):
            self.advance()
            return ast.SelectItem(expr=ast.Star())
        # qualified star: t.*
        if (self.check("ident") and self.peek(1).kind == "punct"
                and self.peek(1).value == "." and self.peek(2).kind == "op"
                and self.peek(2).value == "*"):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(expr=ast.Star(qualifier=qualifier))
        expr = self.parse_expr()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.check("ident"):
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _order_item(self):
        expr = self.parse_expr()
        descending = False
        if self.accept_kw("desc"):
            descending = True
        else:
            self.accept_kw("asc")
        return ast.OrderItem(expr=expr, descending=descending)

    def _table_ref(self):
        if self.accept("punct", "("):
            subquery = self.parse_query()
            self.expect("punct", ")")
            self.accept_kw("as")
            alias = self.expect_ident()
            return ast.TableRef(alias=alias, subquery=subquery)
        name = self.expect_ident()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.check("ident"):
            alias = self.advance().value
        return ast.TableRef(name=name, alias=alias)

    def _join_clause(self):
        kind = "inner"
        if self.accept_kw("left"):
            kind = "left"
            self.accept_kw("outer")
        elif self.accept_kw("right"):
            kind = "right"
            self.accept_kw("outer")
        elif self.accept_kw("full"):
            kind = "full"
            self.accept_kw("outer")
        elif self.accept_kw("inner"):
            kind = "inner"
        self.expect_kw("join")
        table = self._table_ref()
        self.expect_kw("on")
        condition = self.parse_expr()
        return ast.JoinClause(kind=kind, table=table, condition=condition)

    # ------------------------------------------------------------------
    # DML.
    # ------------------------------------------------------------------
    def _insert(self):
        self.expect_kw("insert")
        if self.accept_kw("overwrite"):
            overwrite = True
        else:
            self.expect_kw("into")
            overwrite = False
        self.accept_kw("table")
        table = self.expect_ident()
        partition_spec = None
        if self.accept_kw("partition"):
            self.expect("punct", "(")
            partition_spec = {}
            while True:
                name = self.expect_ident()
                self.expect("op", "=")
                token = self.advance()
                if token.kind not in ("number", "string"):
                    raise ParseError("expected a literal partition value",
                                     token.pos)
                partition_spec[name.lower()] = token.value
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        if self.accept_kw("values"):
            rows = []
            while True:
                self.expect("punct", "(")
                row = [self.parse_expr()]
                while self.accept("punct", ","):
                    row.append(self.parse_expr())
                self.expect("punct", ")")
                rows.append(row)
                if not self.accept("punct", ","):
                    break
            return ast.InsertStmt(table=table, overwrite=overwrite,
                                  values=rows,
                                  partition_spec=partition_spec)
        query = self.parse_query()
        return ast.InsertStmt(table=table, overwrite=overwrite, query=query,
                              partition_spec=partition_spec)

    def _update(self):
        self.expect_kw("update")
        table = self.expect_ident()
        alias = None
        if self.check("ident"):
            alias = self.advance().value
        self.expect_kw("set")
        assignments = [self._assignment()]
        while self.accept("punct", ","):
            assignments.append(self._assignment())
        where = None
        if self.accept_kw("where"):
            where = self.parse_expr()
        return ast.UpdateStmt(table=table, alias=alias,
                              assignments=assignments, where=where)

    def _assignment(self):
        # Allow optional alias qualifier: t.col = expr
        name = self.expect_ident()
        if self.accept("punct", "."):
            name = self.expect_ident()
        self.expect("op", "=")
        return (name, self.parse_expr())

    def _delete(self):
        self.expect_kw("delete")
        self.expect_kw("from")
        table = self.expect_ident()
        alias = None
        if self.check("ident"):
            alias = self.advance().value
        where = None
        if self.accept_kw("where"):
            where = self.parse_expr()
        return ast.DeleteStmt(table=table, alias=alias, where=where)

    def _merge(self):
        """MERGE INTO t [alias] USING src [alias] ON cond
        WHEN MATCHED THEN UPDATE SET a = e, ...
        WHEN NOT MATCHED THEN INSERT VALUES (e, ...)"""
        self.expect_kw("merge")
        self.expect_kw("into")
        target = self.expect_ident()
        alias = None
        if self.check("ident"):
            alias = self.advance().value
        self.expect_kw("using")
        source = self._table_ref()
        self.expect_kw("on")
        condition = self.parse_expr()
        matched_assignments = []
        insert_values = None
        saw_arm = False
        while self.accept_kw("when"):
            saw_arm = True
            negated = bool(self.accept_kw("not"))
            self.expect_kw("matched")
            self.expect_kw("then")
            if negated:
                self.expect_kw("insert")
                self.expect_kw("values")
                self.expect("punct", "(")
                insert_values = [self.parse_expr()]
                while self.accept("punct", ","):
                    insert_values.append(self.parse_expr())
                self.expect("punct", ")")
            else:
                self.expect_kw("update")
                self.expect_kw("set")
                matched_assignments.append(self._assignment())
                while self.accept("punct", ","):
                    matched_assignments.append(self._assignment())
        if not saw_arm:
            raise ParseError("MERGE needs at least one WHEN arm",
                             self.peek().pos)
        return ast.MergeStmt(target=target, alias=alias, source=source,
                             condition=condition,
                             matched_assignments=matched_assignments,
                             insert_values=insert_values)

    # ------------------------------------------------------------------
    # DDL.
    # ------------------------------------------------------------------
    def _create_table(self):
        self.expect_kw("create")
        if self.accept_kw("view"):
            return self._create_view()
        self.expect_kw("table")
        if_not_exists = False
        if self.accept_kw("if"):
            self.expect_kw("not")
            self.expect_kw("exists")
            if_not_exists = True
        table = self.expect_ident()
        self.expect("punct", "(")
        columns = [self._column_def()]
        primary_key = None
        while self.accept("punct", ","):
            if self._peek_word("primary"):
                primary_key = self._primary_key_clause(primary_key)
                continue
            columns.append(self._column_def())
        self.expect("punct", ")")
        # Also accepted as a trailing clause: CREATE TABLE t (...) PRIMARY
        # KEY (k) [STORED AS ...].
        if self._peek_word("primary"):
            primary_key = self._primary_key_clause(primary_key)
        partition_columns = []
        if self.accept_kw("partitioned"):
            self.expect_kw("by")
            self.expect("punct", "(")
            partition_columns.append(self._column_def())
            while self.accept("punct", ","):
                partition_columns.append(self._column_def())
            self.expect("punct", ")")
        shard_key, shard_count = self._sharded_clause(None, None)
        storage = "orc"
        if self.accept_kw("stored"):
            self.expect_kw("as")
            storage = self.expect_ident().lower()
        # Also accepted after STORED AS: ... STORED AS dualtable SHARDED
        # BY (k) INTO 4 [TBLPROPERTIES ...].
        shard_key, shard_count = self._sharded_clause(shard_key,
                                                      shard_count)
        properties = {}
        if self.accept_kw("tblproperties"):
            self.expect("punct", "(")
            while True:
                key = self.expect("string").value
                self.expect("op", "=")
                value = self.advance().value
                properties[key] = value
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        return ast.CreateTableStmt(table=table, columns=columns,
                                   storage=storage, properties=properties,
                                   if_not_exists=if_not_exists,
                                   partition_columns=partition_columns,
                                   primary_key=primary_key,
                                   shard_key=shard_key,
                                   shard_count=shard_count)

    def _sharded_clause(self, shard_key, shard_count):
        """``SHARDED BY (k) INTO n`` (SHARDED is not reserved)."""
        if not self._peek_word("sharded"):
            return shard_key, shard_count
        token = self.advance()
        if shard_key is not None:
            raise ParseError("duplicate SHARDED BY clause", token.pos)
        self.expect_kw("by")
        self.expect("punct", "(")
        shard_key = self.expect_ident().lower()
        if self.check("punct", ","):
            raise ParseError("composite SHARDED BY key is not supported",
                             self.peek().pos)
        self.expect("punct", ")")
        self.expect_kw("into")
        count_token = self.expect("number")
        shard_count = int(count_token.value)
        if shard_count < 1:
            raise ParseError("SHARDED ... INTO needs a positive shard "
                             "count", count_token.pos)
        return shard_key, shard_count

    def _peek_word(self, word):
        token = self.peek()
        return token.kind == "ident" and token.value.lower() == word

    def _primary_key_clause(self, existing):
        token = self.advance()                       # PRIMARY
        if existing is not None:
            raise ParseError("duplicate PRIMARY KEY clause", token.pos)
        if not self._peek_word("key"):
            raise ParseError("expected KEY after PRIMARY", self.peek().pos)
        self.advance()
        self.expect("punct", "(")
        name = self.expect_ident()
        if self.check("punct", ","):
            raise ParseError("composite PRIMARY KEY is not supported",
                             self.peek().pos)
        self.expect("punct", ")")
        return name.lower()

    def _create_view(self):
        if_not_exists = False
        if self.accept_kw("if"):
            self.expect_kw("not")
            self.expect_kw("exists")
            if_not_exists = True
        name = self.expect_ident()
        self.expect_kw("as")
        query = self.parse_query()
        return ast.CreateViewStmt(name=name, query=query,
                                  if_not_exists=if_not_exists)

    def _column_def(self):
        name = self.expect_ident()
        type_token = self.peek()
        if type_token.kind not in ("ident", "kw"):
            raise ParseError("expected a type after column %r" % name,
                             type_token.pos)
        return (name, self.advance().value)

    def _drop_table(self):
        self.expect_kw("drop")
        self.expect_kw("table")
        if_exists = False
        if self.accept_kw("if"):
            self.expect_kw("exists")
            if_exists = True
        return ast.DropTableStmt(table=self.expect_ident(),
                                 if_exists=if_exists)

    def _alter(self):
        self.expect_kw("alter")
        self.expect_kw("table")
        table = self.expect_ident()
        if self.accept_kw("set"):
            return self._alter_autocompact(table)
        if self._peek_word("rebalance"):
            self.advance()
            return ast.AlterRebalanceStmt(table=table)
        self.expect_kw("drop")
        self.expect_kw("partition")
        self.expect("punct", "(")
        spec = {}
        while True:
            name = self.expect_ident()
            self.expect("op", "=")
            token = self.advance()
            if token.kind not in ("number", "string") \
                    and not (token.kind == "kw"
                             and token.value in ("null", "true", "false")):
                raise ParseError("expected a literal partition value",
                                 token.pos)
            value = {"null": None, "true": True,
                     "false": False}.get(token.value, token.value) \
                if token.kind == "kw" else token.value
            spec[name.lower()] = value
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return ast.AlterDropPartitionStmt(table=table, spec=spec)

    def _alter_autocompact(self, table):
        # AUTOCOMPACT/DUALTABLE are not reserved; accept bare idents.
        token = self.advance()
        if token.kind == "ident" and token.value.lower() == "dualtable":
            return self._alter_dualtable(table)
        if token.kind != "ident" or token.value.lower() != "autocompact":
            raise ParseError("expected AUTOCOMPACT or DUALTABLE after "
                             "ALTER TABLE ... SET", token.pos)
        self.expect("punct", "(")
        if self.accept_kw("on"):
            enabled = True
        else:
            token = self.advance()
            if token.kind != "ident" or token.value.lower() != "off":
                raise ParseError("expected ON or OFF in AUTOCOMPACT (...)",
                                 token.pos)
            enabled = False
        options = {}
        while self.accept("punct", ","):
            key = self.expect_ident().lower()
            self.expect("op", "=")
            token = self.advance()
            if token.kind == "number":
                value = token.value
                if not isinstance(value, (int, float)):
                    value = float(value)
            elif token.kind in ("string", "ident"):
                value = token.value
            elif token.kind == "kw" and token.value in ("true", "false"):
                value = token.value == "true"
            else:
                raise ParseError("expected a literal AUTOCOMPACT option "
                                 "value", token.pos)
            options[key] = value
        self.expect("punct", ")")
        return ast.AlterAutoCompactStmt(table=table, enabled=enabled,
                                        options=options)

    def _alter_dualtable(self, table):
        """``ALTER TABLE t SET DUALTABLE (key = value, ...)``."""
        self.expect("punct", "(")
        options = {}
        while True:
            key = self.expect_ident().lower()
            self.expect("op", "=")
            token = self.advance()
            if token.kind == "number":
                value = token.value
            elif token.kind in ("string", "ident"):
                value = token.value
            elif token.kind == "kw" and token.value in ("true", "false"):
                value = token.value == "true"
            else:
                raise ParseError("expected a literal DUALTABLE option "
                                 "value", token.pos)
            options[key] = value
            if not self.accept("punct", ","):
                break
        self.expect("punct", ")")
        return ast.AlterDualTableStmt(table=table, options=options)

    def _compact(self):
        self.expect_kw("compact")
        self.accept_kw("table")
        table = self.expect_ident()
        major = True
        partial = False
        max_files = None
        while self.check("ident") \
                and self.peek().value.lower() in ("minor", "major", "partial"):
            word = self.advance().value.lower()
            if word == "partial":
                partial = True
                if self.check("number"):
                    max_files = int(self.advance().value)
            else:
                major = word == "major"
        return ast.CompactStmt(table=table, major=major, partial=partial,
                               max_files=max_files)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing).
    # ------------------------------------------------------------------
    def parse_expr(self):
        return self._or_expr()

    def _or_expr(self):
        operands = [self._and_expr()]
        while self.accept_kw("or"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.LogicalOp(op="or", operands=operands)

    def _and_expr(self):
        operands = [self._not_expr()]
        while self.accept_kw("and"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return operands[0]
        return ast.LogicalOp(op="and", operands=operands)

    def _not_expr(self):
        if self.accept_kw("not"):
            return ast.NotOp(operand=self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.value in _COMPARISONS:
            op = self.advance().value
            right = self._additive()
            return ast.BinaryOp(op=op, left=left, right=right)
        negated = bool(self.accept_kw("not"))
        if self.accept_kw("between"):
            low = self._additive()
            self.expect_kw("and")
            high = self._additive()
            between = ast.LogicalOp(op="and", operands=[
                ast.BinaryOp(op=">=", left=left, right=low),
                ast.BinaryOp(op="<=", left=left, right=high),
            ])
            return ast.NotOp(operand=between) if negated else between
        if self.accept_kw("in"):
            self.expect("punct", "(")
            if self.check_kw("select"):
                sub = ast.SubQueryExpr(query=self.parse_select())
                self.expect("punct", ")")
                return ast.InList(operand=left, items=[sub], negated=negated)
            items = [self.parse_expr()]
            while self.accept("punct", ","):
                items.append(self.parse_expr())
            self.expect("punct", ")")
            return ast.InList(operand=left, items=items, negated=negated)
        if self.accept_kw("like"):
            pattern = self._additive()
            return ast.LikeOp(operand=left, pattern=pattern, negated=negated)
        if negated:
            raise ParseError("dangling NOT before %r" % (self.peek().value,),
                             self.peek().pos)
        if self.accept_kw("is"):
            negated = bool(self.accept_kw("not"))
            self.expect_kw("null")
            return ast.IsNull(operand=left, negated=negated)
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in ("+", "-", "||"):
                op = self.advance().value
                right = self._multiplicative()
                left = ast.BinaryOp(op=op, left=left, right=right)
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value in ("*", "/", "%"):
                op = self.advance().value
                right = self._unary()
                left = ast.BinaryOp(op=op, left=left, right=right)
            else:
                return left

    def _unary(self):
        if self.accept("op", "-"):
            return ast.UnaryMinus(operand=self._unary())
        self.accept("op", "+")
        return self._primary()

    def _primary(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return ast.Literal(value=token.value)
        if token.kind == "string":
            self.advance()
            return ast.Literal(value=token.value)
        if self.accept_kw("null"):
            return ast.Literal(value=None)
        if self.accept_kw("true"):
            return ast.Literal(value=True)
        if self.accept_kw("false"):
            return ast.Literal(value=False)
        if self.check_kw("case"):
            return self._case_when()
        if self.accept("punct", "("):
            if self.check_kw("select"):
                sub = ast.SubQueryExpr(query=self.parse_select())
                self.expect("punct", ")")
                return sub
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        # IF(...) — `if` is a keyword but also a function name in HiveQL.
        if self.check_kw("if") and self.peek(1).kind == "punct" \
                and self.peek(1).value == "(":
            self.advance()
            return self._finish_func_call("if")
        if token.kind == "ident":
            name = self.advance().value
            if self.check("punct", "("):
                return self._finish_func_call(name.lower())
            if self.accept("punct", "."):
                column = self.expect_ident()
                return ast.ColumnRef(name=column, qualifier=name)
            return ast.ColumnRef(name=name)
        raise ParseError("unexpected token %r in expression"
                         % (token.value,), token.pos)

    def _finish_func_call(self, name):
        self.expect("punct", "(")
        distinct = bool(self.accept_kw("distinct"))
        args = []
        if self.check("op", "*"):
            self.advance()
            args.append(ast.Star())
        elif not self.check("punct", ")"):
            args.append(self.parse_expr())
            while self.accept("punct", ","):
                args.append(self.parse_expr())
        self.expect("punct", ")")
        return ast.FuncCall(name=name, args=args, distinct=distinct)

    def _case_when(self):
        self.expect_kw("case")
        whens = []
        default = None
        while self.accept_kw("when"):
            cond = self.parse_expr()
            self.expect_kw("then")
            whens.append((cond, self.parse_expr()))
        if self.accept_kw("else"):
            default = self.parse_expr()
        self.expect_kw("end")
        return ast.CaseWhen(whens=whens, default=default)


def parse(sql):
    """Parse one statement of HiveQL text."""
    return Parser(sql).parse_statement()


def parse_script(sql):
    """Parse a semicolon-separated list of statements."""
    return Parser(sql).parse_script()
